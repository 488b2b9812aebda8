#pragma once
// Runtime tracing: per-worker event rings + utilization counters.
//
// The paper's argument is about where time goes under contention; end-of-run
// aggregates (scheduler_totals, pool_stats) cannot show a steal storm or
// an idle gap as it happens. This subsystem records 16-byte events
// into per-worker single-writer ring buffers and, at quiescence, exports a
// Chrome/Perfetto trace (trace_export.cpp) plus a utilization summary every
// bench JSON record embeds.
//
// Three operating modes, selected by the spec axis on runtime_config
// (`trace:off|counters|full[:cap]`) or directly via tracer::configure:
//
//   off       — the default. The hot-path cost is one relaxed atomic load
//               and a predicted-untaken branch per instrumentation site.
//   counters  — per-worker event counts, span durations and live gauges
//               accumulate; no ring writes, so nothing to export but the
//               summary (work/steal/idle fractions) is exact.
//   full[:cap]— counters plus a fixed-capacity ring of timestamped events
//               per worker (cap events, rounded up to a power of two,
//               default 1<<16; drop-oldest on wrap). dump() merges the
//               rings into Perfetto trace-event JSON.
//
// Compile-time kill switch: building with SPDAG_TRACE_ENABLED=0 (CMake
// -DSPDAG_TRACE=OFF) turns every inline hook below into an empty function —
// the zero-cost claim CI enforces by comparing a `trace:off` run against a
// compiled-out build (scripts/perf_smoke_gate.py --trace-compare). Spec
// parsing and the tracer object stay available either way so configuration
// paths behave identically; with tracing compiled out they simply observe
// nothing.
//
// Threading contract:
//   * emit/span/gauge hooks: any thread, wait-free on the hot path. Each
//     thread writes only its own ring (keyed by mem::thread_slot()); counts
//     are single-writer relaxed atomics, so summary() may be read mid-run.
//   * configure(): quiescent-only — it frees and reallocates the per-slot
//     tracks, so no thread may be emitting (in the runtime: construct the
//     tracing runtime first, or set the spec through the bench harness
//     before any runtime exists).
//   * reset(): safe under live (idle) workers — it zeroes counters without
//     freeing storage; counts racing the reset are attributed best-effort.
//   * dump()/ring_events(): quiescent-only — ring payloads are plain
//     single-writer memory, read here without synchronization beyond the
//     caller's join/park ordering.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef SPDAG_TRACE_ENABLED
#define SPDAG_TRACE_ENABLED 1
#endif

namespace spdag::obs {

// One ring entry: tsc-or-steady timestamp, event id, two payload words.
struct trace_event {
  std::uint64_t ts;
  std::uint16_t id;
  std::uint16_t a;
  std::uint32_t b;
};
static_assert(sizeof(trace_event) == 16, "trace events are 16 bytes");

enum class trace_mode : int { off = 0, counters = 1, full = 2 };

// Event vocabulary. Span pairs become duration slices in the exported
// trace; instants become marker events; counter samples become counter
// tracks. The `a`/`b` payload meaning is per-event (victim id, cell count,
// gauge value) and documented at the emit site.
enum event_id : std::uint16_t {
  ev_none = 0,
  // Span begin/end pairs (scheduler / engine / mem layers).
  ev_work_begin,      // vertex execution on a worker
  ev_work_end,
  ev_idle_begin,      // parked in the scheduler's idle wait
  ev_idle_end,
  ev_steal_begin,     // thieving (sweeps / steal-request round trips)
  ev_steal_end,
  ev_drain_begin,     // a drain vertex running its out-set subtree task
  ev_drain_end,
  ev_finalize_begin,  // future_state::complete broadcasting its out-set
  ev_finalize_end,
  ev_trim_begin,      // quiescent pool trim
  ev_trim_end,
  // Instants.
  ev_steal_attempt,   // a = victim worker
  ev_steal_success,   // a = victim worker
  ev_drain_enqueue,   // dag_engine::enqueue_drain made a drain vertex
  ev_spawn,           // dag_engine::spawn
  ev_claim_dec,       // dag_engine::claim_dec
  ev_mag_refill,      // b = cells obtained
  ev_mag_flush,       // b = cells shed to the global recycle list
  ev_slab_carve,      // b = slab KiB grown upstream
  ev_slab_release,    // b = slabs returned upstream at trim
  // Resident-service submission lifecycle (src/service/). Queueing delay is
  // separable from execution time because admit carries the former and
  // complete the full sojourn: exec = sojourn - queueing.
  ev_submit,          // dag submitted to a dag_service (client thread)
  ev_admit,           // submission's launcher started on a worker;
                      // b = queueing delay in µs (submit -> start)
  ev_reject,          // submission refused (admission cap or shutdown)
  ev_submit_complete, // submission's final vertex ran;
                      // b = sojourn in µs (submit -> complete)
  // Epoch-based reclamation (src/mem/epoch.hpp): live-trim lifecycle.
  ev_epoch_advance,   // global epoch moved; b = new epoch (low 32 bits)
  ev_slab_retire,     // live trim parked slabs in limbo; b = slab count
  ev_slab_reclaim,    // limbo slab freed after the 2-epoch delay;
                      // b = slab KiB returned upstream
  // Counter samples (b = post-update gauge value, clamped to u32).
  ev_ctr_runnable,
  ev_ctr_drains_pending,
  ev_ctr_slab_kib,
  ev_ctr_inflight,
  ev_ctr_epoch_lag,
  event_id_count
};

// Duration-span index (maps onto the begin/end event pairs above).
enum span_id : int {
  sp_work = 0,
  sp_idle,
  sp_steal,
  sp_drain,
  sp_finalize,
  sp_trim,
  span_id_count
};

// Live gauges maintained across all threads; sampled into the emitting
// thread's ring (full mode) so the exported trace grows counter tracks.
enum gauge_id : int {
  g_runnable = 0,       // vertices enqueued but not yet executing
  g_drains_pending,     // drain vertices enqueued, task not yet run
  g_slab_kib,           // slab bytes currently held from upstream, in KiB
  g_inflight,           // dag_service submissions admitted, not yet complete
  g_epoch_lag,          // how far the oldest pinned record trails the
                        // global epoch (epoch-based reclamation)
  gauge_id_count
};

// Parsed `trace:off|counters|full[:cap]` spec. `ring_cap` is the requested
// per-worker ring capacity in events (full mode only; the tracer rounds it
// up to a power of two).
struct trace_config {
  trace_mode mode = trace_mode::off;
  std::size_t ring_cap = 1 << 16;

  static constexpr std::size_t cap_min = 256;
  static constexpr std::size_t cap_max = 1 << 22;
};

// Strict parser; the optional "trace:" prefix is accepted. Throws
// std::invalid_argument on an unknown mode, a cap on off/counters, or a
// malformed/out-of-rails cap (same strictness as the alloc spec parser).
trace_config parse_trace_spec(const std::string& spec);

// Utilization summary derived from the per-worker accumulators; readable
// mid-run (counts may be a few events skewed between fields).
struct trace_summary {
  trace_mode mode = trace_mode::off;
  std::uint32_t workers = 0;       // thread slots that emitted anything
  std::uint64_t events = 0;        // total events emitted (counted even
                                   // when the ring dropped them)
  std::uint64_t dropped = 0;       // ring overwrites + slotless emits
  // Span time summed across workers (seconds), and each bucket's share of
  // the three-way worker-loop split work+idle+steal (informational spans —
  // drain, finalize, trim — overlap work and are excluded from the split).
  double work_s = 0, idle_s = 0, steal_s = 0;
  double work_frac = 0, idle_frac = 0, steal_frac = 0;
  double drain_s = 0, finalize_s = 0, trim_s = 0;
  // Headline event totals.
  std::uint64_t spawns = 0;
  std::uint64_t claim_decs = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t drains = 0;          // drain spans completed
  std::uint64_t finalizes = 0;
  // Resident-service submission lifecycle (zero outside a dag_service).
  std::uint64_t submits = 0;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t submit_completes = 0;
  std::uint64_t mag_refills = 0;
  std::uint64_t mag_flushes = 0;
  std::uint64_t slab_carves = 0;
  std::uint64_t slab_releases = 0;
  // Epoch-based reclamation lifecycle.
  std::uint64_t epoch_advances = 0;
  std::uint64_t slab_retires = 0;
  std::uint64_t slab_reclaims = 0;

  static const char* mode_name(trace_mode m) noexcept {
    return m == trace_mode::full ? "full"
                                 : (m == trace_mode::counters ? "counters"
                                                              : "off");
  }
};

// Process-wide tracer. A singleton, not a per-runtime object, because the
// instrumented layers (slab_cache magazines, the process-default pool
// registry) outlive and span runtimes; per-thread tracks are keyed by
// mem::thread_slot(), the same dense id the magazines use.
class tracer {
 public:
  static tracer& instance() noexcept;

  // Quiescent-only (see header comment). Replaces mode, ring storage and
  // every accumulator.
  void configure(const trace_config& cfg);
  void configure(const std::string& spec) { configure(parse_trace_spec(spec)); }

  // Zeroes accumulators, gauges and ring heads without touching mode or
  // storage; safe while workers are idle-parked (benches call this after
  // warm-up so per-config summaries cover only the measured window).
  void reset() noexcept;

  trace_mode mode() const noexcept;
  // Effective per-worker ring capacity in events (0 unless mode is full).
  std::size_t ring_capacity() const noexcept;

  trace_summary summary() const;
  std::int64_t gauge(gauge_id g) const noexcept;

  // Retained events of one slot's ring, oldest first, and how many that
  // ring overwrote. Quiescent-only (plain ring reads). Tests and the
  // exporter use these; slot = mem::thread_slot() of the emitting thread.
  std::vector<trace_event> ring_events(int slot) const;
  std::uint64_t ring_dropped(int slot) const noexcept;

  // Merges every ring into Chrome/Perfetto trace-event JSON at `path`
  // (trace_export.cpp). Quiescent-only. Returns 0 on success, 1 on I/O
  // failure (reported to stderr). In counters/off mode the file carries
  // only metadata — callers wanting slices must configure `full`.
  int dump(const std::string& path) const;

 private:
  tracer() = default;
};

namespace detail {
// Runtime mode gate, read on every hook. Defined in trace.cpp; declared
// here so the inline hot-path wrappers compile to one relaxed load.
extern std::atomic<int> g_mode;
void emit_slow(std::uint16_t id, std::uint16_t a, std::uint32_t b) noexcept;
void span_begin_slow(int span) noexcept;
void span_end_slow(int span) noexcept;
void gauge_add_slow(int gauge, std::int64_t delta) noexcept;
}  // namespace detail

// True when the subsystem is compiled in at all.
constexpr bool trace_compiled() noexcept { return SPDAG_TRACE_ENABLED != 0; }

inline trace_mode mode() noexcept {
#if SPDAG_TRACE_ENABLED
  return static_cast<trace_mode>(
      detail::g_mode.load(std::memory_order_relaxed));
#else
  return trace_mode::off;
#endif
}

inline bool active() noexcept { return mode() != trace_mode::off; }

// Instant event. One relaxed load + branch when tracing is off.
inline void emit(event_id id, std::uint16_t a = 0,
                 std::uint32_t b = 0) noexcept {
#if SPDAG_TRACE_ENABLED
  if (active()) detail::emit_slow(id, a, b);
#else
  (void)id;
  (void)a;
  (void)b;
#endif
}

// Gauge delta; in full mode also samples the new value into the emitting
// thread's ring as a counter event.
inline void gauge_add(gauge_id g, std::int64_t delta) noexcept {
#if SPDAG_TRACE_ENABLED
  if (active()) detail::gauge_add_slow(g, delta);
#else
  (void)g;
  (void)delta;
#endif
}

// RAII duration span. Reentrancy-safe per thread (nested guards of the same
// span accumulate once, from the outermost pair).
class span_guard {
 public:
  explicit span_guard(span_id span) noexcept {
#if SPDAG_TRACE_ENABLED
    if (active()) {
      span_ = span;
      detail::span_begin_slow(span);
    }
#else
    (void)span;
#endif
  }
  ~span_guard() {
#if SPDAG_TRACE_ENABLED
    if (span_ >= 0) detail::span_end_slow(span_);
#endif
  }
  span_guard(const span_guard&) = delete;
  span_guard& operator=(const span_guard&) = delete;

 private:
#if SPDAG_TRACE_ENABLED
  int span_ = -1;
#endif
};

}  // namespace spdag::obs
