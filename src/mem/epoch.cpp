#include "mem/epoch.hpp"

#include <atomic>
#include <cassert>
#include <mutex>
#include <vector>

#include "mem/thread_slot.hpp"
#include "obs/trace.hpp"

namespace spdag::mem::epoch {

namespace {

constexpr std::uint64_t k_unpinned = ~std::uint64_t{0};

// One record per dense thread slot, cache-line isolated: the owner writes
// its epoch on pin/refresh, the advancing thread scans all of them. `depth`
// is owner-only (pin nesting), never read cross-thread.
struct alignas(64) slot_record {
  std::atomic<std::uint64_t> epoch{k_unpinned};
  std::uint32_t depth = 0;
};

slot_record g_records[max_thread_slots];
std::atomic<std::uint64_t> g_epoch{0};

// Threads past the dense-slot supply pin anonymously: no record to scan, so
// any live anonymous pin simply blocks advancement. Conservative, and rare
// by construction (mirrors the slab cache's magazine-less bypass).
std::atomic<std::uint64_t> g_anon_pins{0};
thread_local std::uint32_t tl_anon_depth = 0;

thread_local std::uint32_t tl_tick_phase = 0;

struct limbo_item {
  reclaim_fn fn;
  void* a;
  void* b;
  std::uint64_t epoch;  // global epoch when retired
};

// Limbo list + its size mirror. The count is only ever stored under the
// mutex, so it is an exact mirror readers may probe without the lock.
std::mutex g_limbo_mu;
std::vector<limbo_item> g_limbo;
std::atomic<std::size_t> g_limbo_count{0};

// Serializes record scans (try_advance) and the lag-gauge bookkeeping.
std::mutex g_advance_mu;
std::int64_t g_lag_published = 0;  // guarded by g_advance_mu

// Must be called with g_advance_mu held.
void publish_lag(std::int64_t lag) noexcept {
  if (lag == g_lag_published) return;
  obs::gauge_add(obs::g_epoch_lag, lag - g_lag_published);
  g_lag_published = lag;
}

}  // namespace

void pin() noexcept {
  const int slot = thread_slot();
  if (slot < 0) {
    if (tl_anon_depth++ == 0) {
      g_anon_pins.fetch_add(1, std::memory_order_seq_cst);
    }
    return;
  }
  slot_record& r = g_records[slot];
  if (r.depth++ != 0) return;
  // Publish the epoch we entered under, then re-read until stable: the
  // seq_cst store orders against try_advance's scan, and the re-read closes
  // the window where we publish e just as the global moves to e+1 — after
  // this loop our record never lags the epoch our first shared read can
  // observe.
  std::uint64_t e = g_epoch.load(std::memory_order_seq_cst);
  for (;;) {
    r.epoch.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = g_epoch.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
}

void unpin() noexcept {
  const int slot = thread_slot();
  if (slot < 0) {
    assert(tl_anon_depth > 0 && "epoch unpin without matching pin");
    if (--tl_anon_depth == 0) {
      g_anon_pins.fetch_sub(1, std::memory_order_seq_cst);
    }
    return;
  }
  slot_record& r = g_records[slot];
  assert(r.depth > 0 && "epoch unpin without matching pin");
  if (--r.depth == 0) {
    r.epoch.store(k_unpinned, std::memory_order_release);
  }
}

void refresh() noexcept {
  const int slot = thread_slot();
  if (slot < 0) return;  // anonymous pins have nothing to republish
  slot_record& r = g_records[slot];
  if (r.depth == 0) return;
  const std::uint64_t e = g_epoch.load(std::memory_order_relaxed);
  if (r.epoch.load(std::memory_order_relaxed) == e) return;  // common case
  r.epoch.store(e, std::memory_order_seq_cst);
}

void tick() noexcept {
  refresh();
  // Nothing waiting: refresh alone keeps this thread from ever becoming
  // the laggard, and there is no reclamation to drive.
  if (g_limbo_count.load(std::memory_order_relaxed) == 0) return;
  if ((++tl_tick_phase & 63u) != 0) return;
  try_advance();
  reclaim();
}

bool pinned() noexcept {
  const int slot = thread_slot();
  if (slot < 0) return tl_anon_depth > 0;
  return g_records[slot].depth > 0;
}

std::uint64_t current() noexcept {
  return g_epoch.load(std::memory_order_seq_cst);
}

bool try_advance() noexcept {
  std::unique_lock<std::mutex> lk(g_advance_mu, std::try_to_lock);
  if (!lk.owns_lock()) return false;  // someone else is scanning
  const std::uint64_t e = g_epoch.load(std::memory_order_seq_cst);
  bool caught_up = g_anon_pins.load(std::memory_order_seq_cst) == 0;
  std::uint64_t oldest = e;
  for (std::size_t s = 0; s < max_thread_slots; ++s) {
    const std::uint64_t v = g_records[s].epoch.load(std::memory_order_seq_cst);
    if (v == k_unpinned) continue;
    if (v < oldest) oldest = v;
    if (v != e) caught_up = false;
  }
  publish_lag(static_cast<std::int64_t>(e - oldest));
  if (!caught_up) return false;
  std::uint64_t expect = e;
  if (!g_epoch.compare_exchange_strong(expect, e + 1,
                                       std::memory_order_seq_cst)) {
    return false;
  }
  obs::emit(obs::ev_epoch_advance, 0, static_cast<std::uint32_t>(e + 1));
  return true;
}

void retire(reclaim_fn fn, void* a, void* b) noexcept {
  const std::uint64_t e = g_epoch.load(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lk(g_limbo_mu);
  g_limbo.push_back(limbo_item{fn, a, b, e});
  g_limbo_count.store(g_limbo.size(), std::memory_order_release);
}

std::size_t reclaim() noexcept {
  if (g_limbo_count.load(std::memory_order_acquire) == 0) return 0;
  const std::uint64_t cur = g_epoch.load(std::memory_order_seq_cst);
  std::vector<limbo_item> ready;
  {
    std::lock_guard<std::mutex> lk(g_limbo_mu);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < g_limbo.size(); ++i) {
      if (g_limbo[i].epoch + 2 <= cur) {
        ready.push_back(g_limbo[i]);
      } else {
        g_limbo[kept++] = g_limbo[i];
      }
    }
    g_limbo.resize(kept);
    g_limbo_count.store(kept, std::memory_order_release);
  }
  // Callbacks run outside the limbo lock (they take pool-internal locks and
  // emit trace events).
  for (const limbo_item& it : ready) it.fn(it.a, it.b);
  return ready.size();
}

std::size_t flush_owner(void* a) noexcept {
  std::vector<limbo_item> ready;
  {
    std::lock_guard<std::mutex> lk(g_limbo_mu);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < g_limbo.size(); ++i) {
      if (g_limbo[i].a == a) {
        ready.push_back(g_limbo[i]);
      } else {
        g_limbo[kept++] = g_limbo[i];
      }
    }
    g_limbo.resize(kept);
    g_limbo_count.store(kept, std::memory_order_release);
  }
  for (const limbo_item& it : ready) it.fn(it.a, it.b);
  return ready.size();
}

std::size_t limbo_size() noexcept {
  return g_limbo_count.load(std::memory_order_acquire);
}

std::uint64_t lag() noexcept {
  const std::uint64_t e = g_epoch.load(std::memory_order_seq_cst);
  std::uint64_t oldest = e;
  for (std::size_t s = 0; s < max_thread_slots; ++s) {
    const std::uint64_t v = g_records[s].epoch.load(std::memory_order_seq_cst);
    if (v != k_unpinned && v < oldest) oldest = v;
  }
  return e - oldest;
}

}  // namespace spdag::mem::epoch
