#!/usr/bin/env python3
"""CI perf-smoke gate over BENCH_*.json telemetry.

Reads the future_churn JSON document (see harness::json_write) and fails
the job when pooled-allocator throughput drops below the malloc baseline
MEASURED IN THE SAME RUN. Comparing within one run makes the check safe on
shared CI runners: machine speed cancels out of the ratio, so the gate
catches a pool regression without pinning absolute numbers.

With --trace-compare, additionally enforces the tracing subsystem's
zero-cost claim: the main document (built with tracing compiled in, run
with `trace:off`) is compared against a second future_churn document from a
-DSPDAG_TRACE=OFF build of the same commit. The geometric mean of the
per-proc "pool" throughput ratios must stay within --max-trace-overhead
(default 3%) of the compiled-out build.

With --service, additionally sanity-gates the dag_service traffic bench
(BENCH_service_traffic.json): every service/<sched>/clients:<c> record must
conserve submissions (completed == submitted - rejected, completed > 0),
report a finite positive sojourn p99 and a positive completion rate, and
show the quiescent trim working (extra.idle_trims >= 1: the bench calls
dag_service::trim_pools() after its timed reps and counts only a call
that trimmed), with some slab released across the document
(extra.slabs_released). When the records ran with a busy-trim cadence (extra.busy_trim_every > 0), each
must also show busy trims actually firing, and ACROSS the document some
slabs must have made the full retire -> reclaim trip — the
busy-trim-under-load acceptance (a busy trim runs only inside an admitted
submit() call, so a nonzero count proves reclamation under live traffic).
This is a correctness gate, not a throughput gate — service rates depend on
the offered arrival schedule, so absolute numbers are not pinned.

With --apps, additionally sanity-gates the application-tier benches
(BENCH_apps.json, the merged bfs / wavefront_lcs / stream_pipeline
document). Every record must conserve vertices (completed == spawned,
both > 0) and report a finite positive p99 and rate; the amortization
claim is gated directly on the ledger: batch records (extra.batch == 1)
must report counter_ops_per_edge strictly < 1.0, unbatched records must
sit at exactly 1.0 (small tolerance for float serialization) — unbatched
execution pays one inc + one dec per edge by construction.

With --scaling, additionally gates the paper's figure shapes on one or more
documents: fig08_fanin_scalability (BENCH_fig08.json) and fig10_indegree2
(BENCH_fig10_<k>.json). For each figure, the in-counter's (`dyn`) total
ops/s at the largest proc count must reach a floor multiple of its proc-1
ops/s, set in the one SCALING_FLOORS table: 1.0x for fig08 (adding workers
must not lose throughput) and 1.4x for fig10 (per-finish counter setup must
scale). Several documents of one figure are repeats of the same smoke run,
and each config's rate is their median: a single fig10 smoke's 2-proc/1-proc
ratio spreads too widely on a shared 4-core box to separate the two designs
it gates, the median of five does. Like the pool/malloc ratio, this
compares numbers from the same job, so it holds on shared runners of any
speed. `faa` records, when present, are printed for reference and not
gated. Documents without fig08/fig10 records, missing proc-1 or multi-proc
`dyn` records, or a non-finite/non-positive rate, exit 2.

With --selftest, runs the embedded good/bad/malformed fixture documents
through every gate (churn pool/malloc ratio, trace overhead compare,
service with and without busy trim, idle trim, apps, scaling) and exits nonzero if any gate
passes a bad fixture or fails a good one — run this FIRST in CI so a
refactor of this script cannot silently pass everything.

Exit codes: 0 pass, 1 perf regression, 2 malformed/unusable input.

Usage: perf_smoke_gate.py BENCH_future_churn.json [--min-ratio 0.9]
           [--trace-compare BENCH_future_churn_notrace.json]
           [--max-trace-overhead 0.03]
           [--service BENCH_service_traffic.json]
           [--apps BENCH_apps.json]
           [--scaling BENCH_fig08.json [BENCH_fig10_<k>.json ...]]
       perf_smoke_gate.py --selftest
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for key in ("schema", "bench", "git_sha", "records"):
        if key not in doc:
            print(f"perf_smoke_gate: {path} missing key '{key}'",
                  file=sys.stderr)
            sys.exit(2)
    return doc


def churn_pool_rates(doc):
    """proc -> ops_per_s for the gated churn/pool/... records."""
    rates = {}
    for rec in doc["records"]:
        if rec.get("name", "").startswith("churn/") and rec.get("spec") == "pool":
            rates[rec["proc"]] = rec["ops_per_s"]
    return rates


def overhead_gate(doc, compare_path, max_overhead, label):
    """True when the main run keeps up with the feature-compiled-out build.

    Used by --trace-compare: asserts that a compile-time-removable layer
    costs at most `max_overhead` (geomean of per-proc pool-throughput
    ratios) when compiled in.
    """
    stripped = load(compare_path)
    enabled = churn_pool_rates(doc)
    baseline = churn_pool_rates(stripped)
    ratios = []
    for proc in sorted(baseline):
        if proc not in enabled or baseline[proc] <= 0:
            continue
        ratio = enabled[proc] / baseline[proc]
        ratios.append(ratio)
        print(f"  proc {proc}: {label} {enabled[proc]:,.0f} vs compiled-out "
              f"{baseline[proc]:,.0f} fut/s -> ratio {ratio:.3f}")
    if not ratios:
        print(f"perf_smoke_gate: no comparable record pairs for {label}",
              file=sys.stderr)
        sys.exit(2)
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    floor = 1.0 - max_overhead
    verdict = "ok" if geomean >= floor else "REGRESSION"
    print(f"  {label} geomean ratio {geomean:.3f} "
          f"(floor {floor:.3f}) [{verdict}]")
    return geomean >= floor


def service_gate(path):
    """True when every dag_service traffic record is sane (see module doc)."""
    doc = load(path)
    checked = 0
    ok = True
    busy_records = 0
    total_reclaimed = 0.0
    total_retired = 0.0
    total_released = 0.0
    for rec in doc["records"]:
        name = rec.get("name", "")
        if not name.startswith("service/"):
            continue
        checked += 1
        extra = rec.get("extra", {})
        submitted = extra.get("submitted", 0)
        rejected = extra.get("rejected", 0)
        completed = extra.get("completed", 0)
        p99 = rec.get("lat_p99_ms", 0)
        rate = rec.get("ops_per_s", 0)
        problems = []
        if completed <= 0:
            problems.append("completed == 0")
        if completed != submitted - rejected:
            problems.append(
                f"conservation: completed {completed:.0f} != submitted "
                f"{submitted:.0f} - rejected {rejected:.0f}")
        if not (math.isfinite(p99) and p99 > 0):
            problems.append(f"sojourn p99 not finite/positive: {p99}")
        if not (math.isfinite(rate) and rate > 0):
            problems.append(f"ops_per_s not finite/positive: {rate}")
        if extra.get("idle_trims", 0) < 1:
            problems.append("idle trim never fired (idle_trims == 0)")
        total_released += extra.get("slabs_released", 0)
        if extra.get("busy_trim_every", 0) > 0:
            busy_records += 1
            busy_trims = extra.get("busy_trims", 0)
            total_retired += extra.get("slabs_retired", 0)
            total_reclaimed += extra.get("slabs_reclaimed", 0)
            # The cadence (busy_trim_every << submission count) guarantees
            # trims per record; slab yield varies with traffic shape, so
            # the retire/reclaim assertion is document-wide, below.
            if busy_trims <= 0:
                problems.append("busy trim on but busy_trims == 0")
        verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"  {name}: completed {completed:,.0f}/{submitted:,.0f} "
              f"@ {rate:,.0f}/s, sojourn p99 {p99:.3f}ms [{verdict}]")
        if problems:
            ok = False
    if checked == 0:
        print(f"perf_smoke_gate: no service/ records in {path}",
              file=sys.stderr)
        sys.exit(2)
    release_ok = total_released > 0
    print(f"  idle-trim acceptance: slabs released {total_released:.0f} "
          f"across {checked} records [{'ok' if release_ok else 'FAIL'}]")
    if not release_ok:
        print("perf_smoke_gate: idle trims never released a slab — the "
              "idle trim is not doing its job", file=sys.stderr)
        ok = False
    if busy_records > 0:
        reclaim_ok = total_reclaimed > 0
        verdict = "ok" if reclaim_ok else "FAIL"
        print(f"  busy-trim acceptance: slabs retired {total_retired:.0f}, "
              f"reclaimed {total_reclaimed:.0f} across {busy_records} "
              f"busy-trim records [{verdict}]")
        if not reclaim_ok:
            print("perf_smoke_gate: busy-trimming service never reclaimed a "
                  "slab under load — busy trim is not doing its job",
                  file=sys.stderr)
            ok = False
    return ok


def apps_gate(path):
    """True when every application-tier record is sane (see module doc)."""
    doc = load(path)
    checked = 0
    batch_records = 0
    ok = True
    for rec in doc["records"]:
        name = rec.get("name", "")
        extra = rec.get("extra", {})
        if "counter_ops_per_edge" not in extra:
            continue
        checked += 1
        completed = extra.get("completed", 0)
        spawned = extra.get("spawned", 0)
        ratio = extra.get("counter_ops_per_edge", 0)
        batch = extra.get("batch", 0) > 0
        p99 = rec.get("lat_p99_ms", 0)
        rate = rec.get("ops_per_s", 0)
        problems = []
        if completed <= 0:
            problems.append("completed == 0")
        if completed != spawned:
            problems.append(
                f"conservation: completed {completed:.0f} != spawned "
                f"{spawned:.0f}")
        if batch:
            batch_records += 1
            if not (math.isfinite(ratio) and 0 < ratio < 1.0):
                problems.append(
                    f"batch run did not amortize: counter_ops_per_edge "
                    f"{ratio} (need strictly < 1.0)")
        else:
            # One inc + one dec per edge, exactly; tolerance only for float
            # round-trip through JSON.
            if not (math.isfinite(ratio) and abs(ratio - 1.0) < 1e-9):
                problems.append(
                    f"unbatched counter_ops_per_edge {ratio} != 1.0")
        if not (math.isfinite(p99) and p99 > 0):
            problems.append(f"p99 not finite/positive: {p99}")
        if not (math.isfinite(rate) and rate > 0):
            problems.append(f"ops_per_s not finite/positive: {rate}")
        verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"  {name}: {completed:,.0f} vertices @ {rate:,.0f}/s, "
              f"ops/edge {ratio:.4f}, p99 {p99:.3f}ms [{verdict}]")
        if problems:
            ok = False
    if checked == 0:
        print(f"perf_smoke_gate: no app records in {path}", file=sys.stderr)
        sys.exit(2)
    if batch_records == 0:
        print(f"perf_smoke_gate: no batch app records in {path} — the "
              f"amortization claim went unexercised", file=sys.stderr)
        sys.exit(2)
    return ok


# The figure shapes --scaling holds, in one table: record-name prefix ->
# (figure, gated spec, floor on the spec's ops/s at the largest proc count
# over its proc-1 ops/s). Other specs are printed, not gated.
SCALING_FLOORS = {
    "fig08/fanin/": ("fig08", "dyn", 1.0),
    "fig10/indegree2/": ("fig10", "dyn", 1.4),
}


def scaling_gate(*paths):
    """True when every figure in the documents holds its SCALING_FLOORS
    floor (see module doc). Documents holding the same figure are repeats
    of one smoke run: each (spec, proc) rate is their median."""
    rates = {}  # prefix -> spec -> proc -> [ops/s, one per document]
    for path in paths:
        for rec in load(path)["records"]:
            name = rec.get("name", "")
            prefix = next((p for p in SCALING_FLOORS if name.startswith(p)),
                          None)
            if prefix is None:
                continue
            proc, rate = rec.get("proc"), rec.get("ops_per_s")
            if not (isinstance(proc, int) and isinstance(rate, (int, float))
                    and math.isfinite(rate) and rate > 0):
                print(f"perf_smoke_gate: {name}: unusable proc {proc!r} or "
                      f"ops_per_s {rate!r}", file=sys.stderr)
                sys.exit(2)
            (rates.setdefault(prefix, {}).setdefault(rec.get("spec"), {})
             .setdefault(proc, []).append(rate))
    if not rates:
        print(f"perf_smoke_gate: {', '.join(paths)} hold no fig08/fig10 "
              f"records", file=sys.stderr)
        sys.exit(2)
    ok = True
    for prefix, specs in rates.items():
        figure, gated, floor = SCALING_FLOORS[prefix]
        med = {spec: {p: statistics.median(v) for p, v in procs.items()}
               for spec, procs in specs.items()}
        main = med.get(gated, {})
        top = max(main, default=0)
        if 1 not in main or top <= 1:
            print(f"perf_smoke_gate: {figure} needs {gated} records at proc 1 "
                  f"and at a larger proc count", file=sys.stderr)
            sys.exit(2)
        repeats = len(specs[gated][1])
        for spec in sorted(med):
            r = med[spec]
            if spec == gated or 1 not in r or top not in r:
                continue
            print(f"  {figure} {spec} (not gated): proc 1 {r[1]:,.0f} -> "
                  f"proc {top} {r[top]:,.0f} ops/s ({r[top] / r[1]:.2f}x)")
        ratio = main[top] / main[1]
        held = ratio >= floor
        ok &= held
        print(f"  {figure} {gated} (median of {repeats}): proc 1 "
              f"{main[1]:,.0f} -> proc {top} {main[top]:,.0f} ops/s -> "
              f"{ratio:.2f}x (floor {floor:.2f}x) "
              f"[{'ok' if held else 'REGRESSION'}]")
    return ok


def churn_gate(doc, min_ratio):
    """True when pooled churn throughput keeps up with same-run malloc.

    churn/<alloc-spec>/proc:<p> records; "pool" is the gated spec.
    """
    by_spec = {}
    for rec in doc["records"]:
        if not rec.get("name", "").startswith("churn/"):
            continue
        by_spec.setdefault(rec["spec"], {})[rec["proc"]] = rec["ops_per_s"]

    base = by_spec.get("malloc", {})
    pool = by_spec.get("pool", {})

    ok = True
    checked = 0
    for proc in sorted(base):
        if proc not in pool or base[proc] <= 0:
            continue
        checked += 1
        ratio = pool[proc] / base[proc]
        verdict = "ok" if ratio >= min_ratio else "REGRESSION"
        print(f"  proc {proc}: pool {pool[proc]:,.0f} vs malloc "
              f"{base[proc]:,.0f} fut/s -> ratio {ratio:.3f} [{verdict}]")
        if ratio < min_ratio:
            ok = False

    if checked == 0:
        print("perf_smoke_gate: no comparable pool/malloc record pairs found",
              file=sys.stderr)
        sys.exit(2)
    return ok


# --- selftest fixtures -------------------------------------------------------

def _fixture(records):
    return {"schema": 2, "bench": "fixture", "git_sha": "0" * 40,
            "generated_unix": 0, "records": records}


def _churn_rec(spec, proc, rate):
    return {"name": f"churn/{spec}/proc:{proc}", "spec": spec, "proc": proc,
            "ops_per_s": rate}


def _service_rec(completed, submitted, rejected=0, p99=1.0, rate=100.0,
                 busy=None, idle=(1, 3)):
    """idle = (idle_trims, slabs_released); busy = (busy_trims,
    slabs_retired, slabs_reclaimed) marks a record that ran with a
    busy-trim cadence."""
    trims, released = idle
    rec = {"name": "service/default/clients:2", "proc": 2, "ops_per_s": rate,
           "lat_p99_ms": p99,
           "extra": {"submitted": submitted, "rejected": rejected,
                     "completed": completed, "idle_trims": trims,
                     "slabs_released": released}}
    if busy is not None:
        trims, retired, reclaimed = busy
        rec["extra"].update(busy_trim_every=32, busy_trims=trims,
                            slabs_retired=retired, slabs_reclaimed=reclaimed)
    return rec


def _app_rec(batch, ratio, completed=100, spawned=100, p99=1.0, rate=100.0):
    return {"name": f"apps/bfs/batch:{batch}", "proc": 2, "ops_per_s": rate,
            "lat_p99_ms": p99,
            "extra": {"completed": completed, "spawned": spawned,
                      "counter_ops_per_edge": ratio, "batch": batch}}


def _fig08_rec(spec, proc, rate):
    return {"name": f"fig08/fanin/{spec}/proc:{proc}", "spec": spec,
            "proc": proc, "ops_per_s": rate}


def _fig10_rec(spec, proc, rate):
    return {"name": f"fig10/indegree2/{spec}/proc:{proc}", "spec": spec,
            "proc": proc, "ops_per_s": rate}


def selftest():
    """Runs every gate over embedded good/bad fixtures; 0 iff all behave."""
    failures = []

    def expect(label, want, fn):
        try:
            got = "pass" if fn() else "fail"
        except SystemExit as e:
            got = f"exit{e.code}"
        verdict = "ok" if got == want else "SELFTEST FAIL"
        print(f"  selftest {label}: want {want}, got {got} [{verdict}]")
        if got != want:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        truncated = os.path.join(tmp, "truncated.json")
        with open(truncated, "w") as f:
            f.write("{\"schema\": 2, \"records\": [")

        # churn pool/malloc ratio gate
        churn_good = _fixture([_churn_rec("malloc", 1, 100.0),
                               _churn_rec("pool", 1, 120.0)])
        churn_bad = _fixture([_churn_rec("malloc", 1, 100.0),
                              _churn_rec("pool", 1, 50.0)])
        expect("churn good", "pass", lambda: churn_gate(churn_good, 0.9))
        expect("churn bad", "fail", lambda: churn_gate(churn_bad, 0.9))
        expect("churn empty", "exit2", lambda: churn_gate(_fixture([]), 0.9))
        expect("churn malformed", "exit2",
               lambda: churn_gate(load(truncated), 0.9))

        # trace overhead compare
        flat = write("flat.json", churn_good)
        slow = _fixture([_churn_rec("malloc", 1, 100.0),
                         _churn_rec("pool", 1, 60.0)])
        expect("overhead good", "pass",
               lambda: overhead_gate(churn_good, flat, 0.03, "selftest"))
        expect("overhead bad", "fail",
               lambda: overhead_gate(slow, flat, 0.03, "selftest"))
        empty = write("empty.json", _fixture([]))
        expect("overhead empty", "exit2",
               lambda: overhead_gate(churn_good, empty, 0.03, "selftest"))
        expect("overhead malformed", "exit2",
               lambda: overhead_gate(churn_good, truncated, 0.03, "selftest"))

        # service gate
        svc_good = write("svc_good.json", _fixture([_service_rec(100, 100)]))
        svc_bad = write("svc_bad.json", _fixture([_service_rec(90, 100)]))
        expect("service good", "pass", lambda: service_gate(svc_good))
        expect("service bad", "fail", lambda: service_gate(svc_bad))
        busy_good = write("busy_good.json", _fixture(
            [_service_rec(100, 100, busy=(4, 3, 2))]))
        busy_idle = write("busy_idle.json", _fixture(
            [_service_rec(100, 100, busy=(0, 0, 0))]))
        busy_stuck = write("busy_stuck.json", _fixture(
            [_service_rec(100, 100, busy=(4, 3, 0))]))
        expect("service busy trim reclaimed", "pass",
               lambda: service_gate(busy_good))
        expect("service busy trim never fired", "fail",
               lambda: service_gate(busy_idle))
        expect("service busy trim never reclaimed", "fail",
               lambda: service_gate(busy_stuck))
        idle_never = write("idle_never.json", _fixture(
            [_service_rec(100, 100), _service_rec(100, 100, idle=(0, 0))]))
        idle_empty = write("idle_empty.json", _fixture(
            [_service_rec(100, 100, idle=(1, 0)),
             _service_rec(100, 100, idle=(2, 0))]))
        expect("service idle trim never fired", "fail",
               lambda: service_gate(idle_never))
        expect("service idle trims released nothing", "fail",
               lambda: service_gate(idle_empty))
        expect("service empty", "exit2", lambda: service_gate(empty))
        expect("service malformed", "exit2", lambda: service_gate(truncated))

        # apps gate
        apps_good = write("apps_good.json",
                          _fixture([_app_rec(1, 0.53), _app_rec(0, 1.0)]))
        apps_bad = write("apps_bad.json",
                         _fixture([_app_rec(1, 1.2), _app_rec(0, 1.0)]))
        apps_nobatch = write("apps_nobatch.json",
                             _fixture([_app_rec(0, 1.0)]))
        expect("apps good", "pass", lambda: apps_gate(apps_good))
        expect("apps bad", "fail", lambda: apps_gate(apps_bad))
        expect("apps no-batch", "exit2", lambda: apps_gate(apps_nobatch))
        expect("apps empty", "exit2", lambda: apps_gate(empty))
        expect("apps malformed", "exit2", lambda: apps_gate(truncated))

        # fig08 scaling gate
        scale_good = write("scale_good.json", _fixture(
            [_fig08_rec("faa", 1, 100.0), _fig08_rec("faa", 2, 60.0),
             _fig08_rec("dyn", 1, 100.0), _fig08_rec("dyn", 2, 190.0)]))
        scale_bad = write("scale_bad.json", _fixture(
            [_fig08_rec("dyn", 1, 100.0), _fig08_rec("dyn", 2, 40.0)]))
        scale_nop1 = write("scale_nop1.json", _fixture(
            [_fig08_rec("dyn", 2, 190.0), _fig08_rec("dyn", 4, 300.0)]))
        scale_p1only = write("scale_p1only.json", _fixture(
            [_fig08_rec("dyn", 1, 100.0), _fig08_rec("faa", 2, 90.0)]))
        scale_zero = write("scale_zero.json", _fixture(
            [_fig08_rec("dyn", 1, 0.0), _fig08_rec("dyn", 2, 190.0)]))
        expect("scaling good", "pass", lambda: scaling_gate(scale_good))
        expect("scaling bad", "fail", lambda: scaling_gate(scale_bad))
        expect("scaling no proc-1", "exit2", lambda: scaling_gate(scale_nop1))
        expect("scaling proc-1 only", "exit2",
               lambda: scaling_gate(scale_p1only))
        expect("scaling zero rate", "exit2", lambda: scaling_gate(scale_zero))
        expect("scaling empty", "exit2", lambda: scaling_gate(empty))
        expect("scaling malformed", "exit2", lambda: scaling_gate(truncated))
        # fig10 scaling gate: dyn must reach 1.4x its proc-1 ops/s
        fig10_good = write("fig10_good.json", _fixture(
            [_fig10_rec("faa", 1, 100.0), _fig10_rec("faa", 2, 90.0),
             _fig10_rec("dyn", 1, 100.0), _fig10_rec("dyn", 2, 150.0)]))
        fig10_bad = write("fig10_bad.json", _fixture(
            [_fig10_rec("faa", 1, 100.0), _fig10_rec("faa", 2, 190.0),
             _fig10_rec("dyn", 1, 100.0), _fig10_rec("dyn", 2, 120.0)]))
        fig10_nodyn = write("fig10_nodyn.json", _fixture(
            [_fig10_rec("faa", 1, 100.0), _fig10_rec("faa", 2, 190.0)]))
        expect("fig10 scaling good", "pass", lambda: scaling_gate(fig10_good))
        expect("fig10 scaling bad", "fail", lambda: scaling_gate(fig10_bad))
        expect("fig10 scaling no dyn", "exit2",
               lambda: scaling_gate(fig10_nodyn))
        # Repeats: the median of each config, so one outlier run (here a
        # 1.2x repeat between two 1.5x ones) neither fails nor passes alone.
        fig10_slow = write("fig10_slow.json", _fixture(
            [_fig10_rec("dyn", 1, 100.0), _fig10_rec("dyn", 2, 120.0)]))
        expect("fig10 scaling median of repeats", "pass",
               lambda: scaling_gate(fig10_good, fig10_slow, fig10_good))
        expect("fig10 scaling median of failing repeats", "fail",
               lambda: scaling_gate(fig10_slow, fig10_good, fig10_slow))
        expect("fig08 and fig10 together", "fail",
               lambda: scaling_gate(scale_good, fig10_bad))

    if failures:
        print(f"perf_smoke_gate: SELFTEST FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("perf_smoke_gate: selftest PASS")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("json_path", nargs="?", default=None)
    ap.add_argument("--min-ratio", type=float, default=0.9,
                    help="minimum pool/malloc ops-per-second ratio "
                         "(default 0.9: a little head-room for runner noise; "
                         "steady state has measured ~1.2x on 1 core)")
    ap.add_argument("--trace-compare", metavar="NOTRACE_JSON", default=None,
                    help="future_churn document from a -DSPDAG_TRACE=OFF "
                         "build; enforces the trace:off zero-cost claim")
    ap.add_argument("--max-trace-overhead", type=float, default=0.03,
                    help="max geomean throughput loss of trace:off vs the "
                         "compiled-out build (default 0.03)")
    ap.add_argument("--service", metavar="SERVICE_JSON", default=None,
                    help="service_traffic document; sanity-gates the "
                         "dag_service records (conservation, finite p99, "
                         "idle and busy trims)")
    ap.add_argument("--apps", metavar="APPS_JSON", default=None,
                    help="merged application-tier document; gates vertex "
                         "conservation and counter_ops_per_edge < 1.0 on "
                         "batch configs")
    ap.add_argument("--scaling", metavar="FIG_JSON", nargs="+", default=None,
                    help="fig08_fanin_scalability and/or fig10_indegree2 "
                         "documents (repeats of one figure are pooled by "
                         "median); fails unless each figure's dyn ops/s at "
                         "the largest proc reaches its SCALING_FLOORS "
                         "multiple of the proc-1 ops/s")
    ap.add_argument("--selftest", action="store_true",
                    help="run every gate over embedded good/bad fixtures "
                         "and exit (no input document needed)")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(selftest())
    if args.json_path is None:
        ap.error("json_path is required unless --selftest is given")

    doc = load(args.json_path)
    print(f"perf_smoke_gate: {doc['bench']} @ {doc['git_sha'][:12]}, "
          f"{len(doc['records'])} records")

    failed = not churn_gate(doc, args.min_ratio)
    if args.apps is not None:
        if not apps_gate(args.apps):
            print("perf_smoke_gate: FAIL - application-tier records violated "
                  "conservation or the batch amortization claim",
                  file=sys.stderr)
            sys.exit(1)
    if args.service is not None:
        if not service_gate(args.service):
            print("perf_smoke_gate: FAIL - dag_service traffic records "
                  "violated conservation, reported degenerate latency, or "
                  "showed a trim not firing",
                  file=sys.stderr)
            sys.exit(1)
    if args.scaling is not None:
        if not scaling_gate(*args.scaling):
            print("perf_smoke_gate: FAIL - dyn throughput fell below its "
                  "scaling floor when workers were added", file=sys.stderr)
            sys.exit(1)
    if args.trace_compare is not None:
        if not overhead_gate(doc, args.trace_compare,
                             args.max_trace_overhead, "trace:off"):
            print(f"perf_smoke_gate: FAIL - trace:off lost more than "
                  f"{args.max_trace_overhead:.0%} vs the compiled-out build",
                  file=sys.stderr)
            sys.exit(1)
    if failed:
        print(f"perf_smoke_gate: FAIL - pool fell below "
              f"{args.min_ratio:.2f}x malloc on the same run",
              file=sys.stderr)
        sys.exit(1)
    print("perf_smoke_gate: PASS")


if __name__ == "__main__":
    main()
