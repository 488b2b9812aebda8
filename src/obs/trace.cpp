#include "obs/trace.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>

#include "mem/thread_slot.hpp"
#include "obs/trace_export.hpp"
#include "util/single_writer.hpp"

namespace spdag::obs {

namespace detail {
std::atomic<int> g_mode{0};
}  // namespace detail

namespace {

// Raw event clock: the x86 timestamp counter where available (one
// instruction, constant-rate on every machine this targets), otherwise the
// steady clock in nanoseconds. Either way dump()/summary() map ticks onto
// nanoseconds through a two-anchor linear calibration, so the unit never
// leaks out of this file.
std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread slot's accumulators + ring. Created lazily on first emit,
// destroyed only by configure() (quiescent), so a worker's pointer never
// dangles mid-run. span_start/span_depth are owner-only plain fields;
// everything cross-thread-readable is a relaxed atomic.
struct track {
  std::atomic<std::uint64_t> head{0};     // ring pushes, monotone
  std::atomic<std::uint64_t> emitted{0};  // every event, ring or not
  trace_event* ring = nullptr;
  std::uint64_t span_start[span_id_count] = {};
  std::uint32_t span_depth[span_id_count] = {};
  std::atomic<std::uint64_t> span_ticks[span_id_count] = {};
  std::atomic<std::uint64_t> span_calls[span_id_count] = {};
  std::atomic<std::uint64_t> counts[event_id_count] = {};

  ~track() { delete[] ring; }
};

std::atomic<track*> g_tracks[mem::max_thread_slots] = {};
std::mutex g_track_mu;                 // lazy track creation + configure
std::size_t g_cap = 0;                 // ring capacity (0 = no rings)
std::uint64_t g_cap_mask = 0;
std::atomic<std::int64_t> g_gauges[gauge_id_count] = {};
std::atomic<std::uint64_t> g_slotless{0};  // emits from slotless threads
std::atomic<std::uint64_t> g_anchor_ticks{0};
std::atomic<std::int64_t> g_anchor_ns{0};

constexpr event_id span_begin_ev[span_id_count] = {
    ev_work_begin, ev_idle_begin,     ev_steal_begin,
    ev_drain_begin, ev_finalize_begin, ev_trim_begin};
constexpr event_id span_end_ev[span_id_count] = {
    ev_work_end, ev_idle_end,     ev_steal_end,
    ev_drain_end, ev_finalize_end, ev_trim_end};
constexpr event_id gauge_ev[gauge_id_count] = {
    ev_ctr_runnable, ev_ctr_drains_pending, ev_ctr_slab_kib, ev_ctr_inflight,
    ev_ctr_epoch_lag};

std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

track* track_for() noexcept {
  const int slot = mem::thread_slot();
  if (slot < 0) {
    // Over-subscribed thread beyond the dense-slot supply: counted, not
    // traced (mirrors the slab cache's magazine-less bypass).
    g_slotless.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  track* t = g_tracks[slot].load(std::memory_order_acquire);
  if (t == nullptr) {
    std::lock_guard<std::mutex> lock(g_track_mu);
    t = g_tracks[slot].load(std::memory_order_relaxed);
    if (t == nullptr) {
      t = new track;
      if (g_cap != 0) t->ring = new trace_event[g_cap];
      g_tracks[slot].store(t, std::memory_order_release);
    }
  }
  return t;
}

void emit_raw(track* t, std::uint16_t id, std::uint16_t a,
              std::uint32_t b, std::uint64_t ts) noexcept {
  bump(t->counts[id]);
  bump(t->emitted);
  if (t->ring != nullptr) {
    const std::uint64_t h = t->head.load(std::memory_order_relaxed);
    t->ring[h & g_cap_mask] = trace_event{ts, id, a, b};
    t->head.store(h + 1, std::memory_order_relaxed);
  }
}

void anchor_now() noexcept {
  g_anchor_ticks.store(now_ticks(), std::memory_order_relaxed);
  g_anchor_ns.store(steady_ns(), std::memory_order_relaxed);
}

// Ticks-to-nanoseconds rate from the configure/reset anchor to now; 1.0
// when no time has passed (or on the steady-clock fallback, where it
// converges to 1 anyway).
double ns_per_tick_now() noexcept {
  const std::uint64_t t0 = g_anchor_ticks.load(std::memory_order_relaxed);
  const std::uint64_t t1 = now_ticks();
  if (t1 <= t0) return 1.0;
  const double dns = static_cast<double>(
      steady_ns() - g_anchor_ns.load(std::memory_order_relaxed));
  return dns > 0 ? dns / static_cast<double>(t1 - t0) : 1.0;
}

}  // namespace

namespace detail {

void emit_slow(std::uint16_t id, std::uint16_t a, std::uint32_t b) noexcept {
  track* t = track_for();
  if (t == nullptr) return;
  emit_raw(t, id, a, b, t->ring != nullptr ? now_ticks() : 0);
}

void span_begin_slow(int span) noexcept {
  track* t = track_for();
  if (t == nullptr) return;
  if (t->span_depth[span]++ != 0) return;  // nested: outermost pair wins
  const std::uint64_t ts = now_ticks();
  t->span_start[span] = ts;
  emit_raw(t, span_begin_ev[span], 0, 0, ts);
}

void span_end_slow(int span) noexcept {
  track* t = track_for();
  if (t == nullptr) return;
  if (t->span_depth[span] == 0) return;  // begin lost to a reconfigure
  if (--t->span_depth[span] != 0) return;
  const std::uint64_t ts = now_ticks();
  bump(t->span_ticks[span], ts - t->span_start[span]);
  bump(t->span_calls[span]);
  emit_raw(t, span_end_ev[span], 0, 0, ts);
}

void gauge_add_slow(int gauge, std::int64_t delta) noexcept {
  const std::int64_t v =
      g_gauges[gauge].fetch_add(delta, std::memory_order_relaxed) + delta;
  if (g_cap == 0) return;  // counters mode: gauge only, no ring sample
  track* t = track_for();
  if (t == nullptr) return;
  const std::uint64_t clamped =
      v < 0 ? 0 : static_cast<std::uint64_t>(v);
  emit_raw(t, gauge_ev[gauge], 0,
           clamped > 0xffffffffULL ? 0xffffffffU
                                   : static_cast<std::uint32_t>(clamped),
           now_ticks());
}

}  // namespace detail

trace_config parse_trace_spec(const std::string& spec) {
  std::string s = spec;
  if (s.rfind("trace:", 0) == 0) s = s.substr(6);
  const std::size_t colon = s.find(':');
  const std::string mode_field = s.substr(0, colon);
  trace_config cfg;
  if (mode_field == "off") {
    cfg.mode = trace_mode::off;
  } else if (mode_field == "counters") {
    cfg.mode = trace_mode::counters;
  } else if (mode_field == "full") {
    cfg.mode = trace_mode::full;
  } else {
    throw std::invalid_argument("unknown trace mode: " + spec);
  }
  if (colon == std::string::npos) return cfg;
  if (cfg.mode != trace_mode::full) {
    throw std::invalid_argument(
        "trace spec: only 'full' takes a ring capacity: " + spec);
  }
  // Strict numeric cap within rails, same policy as the alloc spec parser:
  // empty, trailing garbage, overflow and out-of-range all reject.
  const std::string field = s.substr(colon + 1);
  unsigned long long cap = 0;
  bool ok = !field.empty() &&
            field.find_first_not_of("0123456789") == std::string::npos;
  if (ok) {
    try {
      cap = std::stoull(field);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || cap < trace_config::cap_min || cap > trace_config::cap_max) {
    // Built by append, not one operator+ chain (gcc 12 -Wrestrict,
    // PR 105651).
    std::string msg = "trace ring cap must be in [";
    msg += std::to_string(trace_config::cap_min);
    msg += ", ";
    msg += std::to_string(trace_config::cap_max);
    msg += "]: ";
    msg += spec;
    throw std::invalid_argument(msg);
  }
  cfg.ring_cap = static_cast<std::size_t>(cap);
  return cfg;
}

tracer& tracer::instance() noexcept {
  static tracer t;
  return t;
}

void tracer::configure(const trace_config& cfg) {
  std::lock_guard<std::mutex> lock(g_track_mu);
  // Stop new emits before tearing storage down; the quiescence contract
  // says nobody is mid-emit.
  detail::g_mode.store(static_cast<int>(trace_mode::off),
                       std::memory_order_release);
  for (auto& slot : g_tracks) {
    track* t = slot.load(std::memory_order_relaxed);
    slot.store(nullptr, std::memory_order_relaxed);
    delete t;
  }
  g_cap = cfg.mode == trace_mode::full ? round_up_pow2(cfg.ring_cap) : 0;
  g_cap_mask = g_cap == 0 ? 0 : g_cap - 1;
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
  g_slotless.store(0, std::memory_order_relaxed);
  anchor_now();
  detail::g_mode.store(static_cast<int>(cfg.mode), std::memory_order_release);
}

void tracer::reset() noexcept {
  for (auto& slot : g_tracks) {
    track* t = slot.load(std::memory_order_acquire);
    if (t == nullptr) continue;
    t->head.store(0, std::memory_order_relaxed);
    t->emitted.store(0, std::memory_order_relaxed);
    for (auto& c : t->span_ticks) c.store(0, std::memory_order_relaxed);
    for (auto& c : t->span_calls) c.store(0, std::memory_order_relaxed);
    for (auto& c : t->counts) c.store(0, std::memory_order_relaxed);
    // span_start / span_depth are owner-only; an idle span straddling the
    // reset simply carries a pre-reset start, which slightly over-credits
    // idle time and nothing else.
  }
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
  g_slotless.store(0, std::memory_order_relaxed);
  anchor_now();
}

trace_mode tracer::mode() const noexcept { return obs::mode(); }

std::size_t tracer::ring_capacity() const noexcept { return g_cap; }

std::int64_t tracer::gauge(gauge_id g) const noexcept {
  return g_gauges[g].load(std::memory_order_relaxed);
}

trace_summary tracer::summary() const {
  trace_summary s;
  s.mode = mode();
  const double ns_per_tick = ns_per_tick_now();
  std::uint64_t span_ticks[span_id_count] = {};
  s.dropped = g_slotless.load(std::memory_order_relaxed);
  for (const auto& slot : g_tracks) {
    const track* t = slot.load(std::memory_order_acquire);
    if (t == nullptr) continue;
    const std::uint64_t emitted = t->emitted.load(std::memory_order_relaxed);
    if (emitted == 0) continue;
    ++s.workers;
    s.events += emitted;
    const std::uint64_t head = t->head.load(std::memory_order_relaxed);
    if (g_cap != 0 && head > g_cap) s.dropped += head - g_cap;
    for (int i = 0; i < span_id_count; ++i) {
      span_ticks[i] += t->span_ticks[i].load(std::memory_order_relaxed);
    }
    s.spawns += t->counts[ev_spawn].load(std::memory_order_relaxed);
    s.claim_decs += t->counts[ev_claim_dec].load(std::memory_order_relaxed);
    s.steal_attempts +=
        t->counts[ev_steal_attempt].load(std::memory_order_relaxed);
    s.steal_successes +=
        t->counts[ev_steal_success].load(std::memory_order_relaxed);
    s.drains += t->span_calls[sp_drain].load(std::memory_order_relaxed);
    s.finalizes += t->span_calls[sp_finalize].load(std::memory_order_relaxed);
    s.submits += t->counts[ev_submit].load(std::memory_order_relaxed);
    s.admits += t->counts[ev_admit].load(std::memory_order_relaxed);
    s.rejects += t->counts[ev_reject].load(std::memory_order_relaxed);
    s.submit_completes +=
        t->counts[ev_submit_complete].load(std::memory_order_relaxed);
    s.mag_refills += t->counts[ev_mag_refill].load(std::memory_order_relaxed);
    s.mag_flushes += t->counts[ev_mag_flush].load(std::memory_order_relaxed);
    s.slab_carves += t->counts[ev_slab_carve].load(std::memory_order_relaxed);
    s.slab_releases +=
        t->counts[ev_slab_release].load(std::memory_order_relaxed);
    s.epoch_advances +=
        t->counts[ev_epoch_advance].load(std::memory_order_relaxed);
    s.slab_retires +=
        t->counts[ev_slab_retire].load(std::memory_order_relaxed);
    s.slab_reclaims +=
        t->counts[ev_slab_reclaim].load(std::memory_order_relaxed);
  }
  const double to_s = ns_per_tick * 1e-9;
  s.work_s = static_cast<double>(span_ticks[sp_work]) * to_s;
  s.idle_s = static_cast<double>(span_ticks[sp_idle]) * to_s;
  s.steal_s = static_cast<double>(span_ticks[sp_steal]) * to_s;
  s.drain_s = static_cast<double>(span_ticks[sp_drain]) * to_s;
  s.finalize_s = static_cast<double>(span_ticks[sp_finalize]) * to_s;
  s.trim_s = static_cast<double>(span_ticks[sp_trim]) * to_s;
  const double denom = s.work_s + s.idle_s + s.steal_s;
  if (denom > 0) {
    s.work_frac = s.work_s / denom;
    s.idle_frac = s.idle_s / denom;
    s.steal_frac = s.steal_s / denom;
  }
  return s;
}

std::vector<trace_event> tracer::ring_events(int slot) const {
  std::vector<trace_event> out;
  if (slot < 0 || slot >= static_cast<int>(mem::max_thread_slots)) return out;
  const track* t = g_tracks[slot].load(std::memory_order_acquire);
  if (t == nullptr || t->ring == nullptr) return out;
  const std::uint64_t head = t->head.load(std::memory_order_relaxed);
  const std::uint64_t first = head > g_cap ? head - g_cap : 0;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    out.push_back(t->ring[i & g_cap_mask]);
  }
  return out;
}

std::uint64_t tracer::ring_dropped(int slot) const noexcept {
  if (slot < 0 || slot >= static_cast<int>(mem::max_thread_slots)) return 0;
  const track* t = g_tracks[slot].load(std::memory_order_acquire);
  if (t == nullptr) return 0;
  const std::uint64_t head = t->head.load(std::memory_order_relaxed);
  return g_cap != 0 && head > g_cap ? head - g_cap : 0;
}

int tracer::dump(const std::string& path) const {
  std::vector<detail::track_snapshot> tracks;
  std::uint64_t dropped_total = g_slotless.load(std::memory_order_relaxed);
  for (std::size_t slot = 0; slot < mem::max_thread_slots; ++slot) {
    const track* t = g_tracks[slot].load(std::memory_order_acquire);
    if (t == nullptr ||
        t->emitted.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    detail::track_snapshot snap;
    snap.slot = static_cast<int>(slot);
    snap.events = ring_events(static_cast<int>(slot));
    snap.dropped = ring_dropped(static_cast<int>(slot));
    dropped_total += snap.dropped;
    tracks.push_back(std::move(snap));
  }
  return detail::export_chrome_trace(
      path, tracks, ns_per_tick_now(),
      g_anchor_ticks.load(std::memory_order_relaxed), mode(), g_cap,
      dropped_total);
}

}  // namespace spdag::obs
