#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace spdag::obs::detail {

namespace {

// How each event id renders in the Chrome trace-event stream.
enum class ev_kind : int { none, span_begin, span_end, instant, counter };

struct ev_info {
  ev_kind kind = ev_kind::none;
  int span = -1;           // span_begin / span_end only
  const char* name = "";   // slice / marker / counter-track name
};

const ev_info& info_for(std::uint16_t id) noexcept {
  static const ev_info table[event_id_count] = {
      /* ev_none */ {},
      {ev_kind::span_begin, sp_work, "work"},
      {ev_kind::span_end, sp_work, "work"},
      {ev_kind::span_begin, sp_idle, "idle"},
      {ev_kind::span_end, sp_idle, "idle"},
      {ev_kind::span_begin, sp_steal, "steal"},
      {ev_kind::span_end, sp_steal, "steal"},
      {ev_kind::span_begin, sp_drain, "drain"},
      {ev_kind::span_end, sp_drain, "drain"},
      {ev_kind::span_begin, sp_finalize, "finalize"},
      {ev_kind::span_end, sp_finalize, "finalize"},
      {ev_kind::span_begin, sp_trim, "trim"},
      {ev_kind::span_end, sp_trim, "trim"},
      {ev_kind::instant, -1, "steal_attempt"},
      {ev_kind::instant, -1, "steal_success"},
      {ev_kind::instant, -1, "drain_enqueue"},
      {ev_kind::instant, -1, "spawn"},
      {ev_kind::instant, -1, "claim_dec"},
      {ev_kind::instant, -1, "mag_refill"},
      {ev_kind::instant, -1, "mag_flush"},
      {ev_kind::instant, -1, "slab_carve"},
      {ev_kind::instant, -1, "slab_release"},
      {ev_kind::instant, -1, "submit"},
      {ev_kind::instant, -1, "admit"},
      {ev_kind::instant, -1, "reject"},
      {ev_kind::instant, -1, "submit_complete"},
      {ev_kind::instant, -1, "epoch_advance"},
      {ev_kind::instant, -1, "slab_retire"},
      {ev_kind::instant, -1, "slab_reclaim"},
      {ev_kind::counter, -1, "runnable"},
      {ev_kind::counter, -1, "drains_pending"},
      {ev_kind::counter, -1, "slab_kib"},
      {ev_kind::counter, -1, "inflight"},
      {ev_kind::counter, -1, "epoch_lag"},
  };
  static const ev_info unknown = {};
  return id < event_id_count ? table[id] : unknown;
}

// One rendered trace-event line, pre-serialization, so a per-track sort by
// start time keeps every tid's file order monotone (trace_validate.py
// asserts this; Perfetto itself is order-tolerant).
struct out_event {
  double ts_us = 0;
  double dur_us = 0;   // X only
  char ph = 'i';
  const char* name = "";
  bool has_args = false;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
};

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

void append_event_json(std::string& out, const out_event& e, int tid) {
  // Built by append throughout (gcc 12 -Wrestrict, PR 105651).
  out += "    {\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"ph\":\"";
  out += e.ph;
  out += "\",\"ts\":";
  append_double(out, e.ts_us);
  if (e.ph == 'X') {
    out += ",\"dur\":";
    append_double(out, e.dur_us);
  }
  out += ",\"name\":\"";
  out += e.name;
  out += "\",\"cat\":\"spdag\"";
  if (e.ph == 'i') out += ",\"s\":\"t\"";
  if (e.ph == 'C') {
    out += ",\"args\":{\"value\":";
    out += std::to_string(e.b);
    out += "}";
  } else if (e.has_args) {
    out += ",\"args\":{\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += "}";
  }
  out += "}";
}

}  // namespace

int export_chrome_trace(const std::string& path,
                        const std::vector<track_snapshot>& tracks,
                        double ns_per_tick, std::uint64_t base_ticks,
                        trace_mode mode, std::size_t ring_cap,
                        std::uint64_t dropped_total) {
  const double us_per_tick = ns_per_tick * 1e-3;
  auto to_us = [&](std::uint64_t ticks) {
    // Events straddling a reset re-anchor can predate base_ticks; signed
    // math keeps them ordered instead of wrapping.
    return static_cast<double>(static_cast<std::int64_t>(ticks - base_ticks)) *
           us_per_tick;
  };

  std::string out;
  out += "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {\"mode\": \"";
  out += trace_summary::mode_name(mode);
  out += "\", \"ring_capacity\": ";
  out += std::to_string(ring_cap);
  out += ", \"dropped\": ";
  out += std::to_string(dropped_total);
  out += "},\n  \"traceEvents\": [\n";
  out +=
      "    {\"pid\":1,\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"spdag\"}}";

  for (const auto& t : tracks) {
    out += ",\n    {\"pid\":1,\"tid\":";
    out += std::to_string(t.slot);
    out += ",\"ph\":\"M\",\"name\":\"thread_name\","
           "\"args\":{\"name\":\"worker-slot-";
    out += std::to_string(t.slot);
    out += "\"}}";

    // Pair begin/end events into complete slices. The ring drops oldest on
    // wrap, so an end without its begin (or a begin without its end at the
    // snapshot edge) is skipped rather than guessed at.
    bool span_open[span_id_count] = {};
    double span_ts[span_id_count] = {};
    std::vector<out_event> evs;
    evs.reserve(t.events.size());
    for (const trace_event& e : t.events) {
      const ev_info& info = info_for(e.id);
      const double ts = to_us(e.ts);
      switch (info.kind) {
        case ev_kind::span_begin:
          span_open[info.span] = true;
          span_ts[info.span] = ts;
          break;
        case ev_kind::span_end:
          if (span_open[info.span]) {
            span_open[info.span] = false;
            out_event oe;
            oe.ph = 'X';
            oe.ts_us = span_ts[info.span];
            oe.dur_us = ts > span_ts[info.span] ? ts - span_ts[info.span] : 0;
            oe.name = info.name;
            evs.push_back(oe);
          }
          break;
        case ev_kind::instant: {
          out_event oe;
          oe.ph = 'i';
          oe.ts_us = ts;
          oe.name = info.name;
          oe.has_args = e.a != 0 || e.b != 0;
          oe.a = e.a;
          oe.b = e.b;
          evs.push_back(oe);
          break;
        }
        case ev_kind::counter: {
          out_event oe;
          oe.ph = 'C';
          oe.ts_us = ts;
          oe.name = info.name;
          oe.b = e.b;
          evs.push_back(oe);
          break;
        }
        case ev_kind::none:
          break;
      }
    }
    std::stable_sort(evs.begin(), evs.end(),
                     [](const out_event& x, const out_event& y) {
                       return x.ts_us < y.ts_us;
                     });
    for (const out_event& e : evs) {
      out += ",\n";
      append_event_json(out, e, t.slot);
    }
  }

  out += "\n  ]\n}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "trace dump: cannot open %s\n", path.c_str());
    return 1;
  }
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  if (!f) {
    std::fprintf(stderr, "trace dump: write failed for %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace spdag::obs::detail
