#include "mem/slab_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/single_writer.hpp"

namespace spdag {

namespace {

// Tagged 48-bit pointer + 16-bit monotone tag (canonical user-space
// addresses): the tag defeats ABA between a pop's head read and its CAS.
constexpr std::uint64_t ptr_mask = (1ULL << 48) - 1;

std::uint64_t pack(void* p, std::uint64_t tag) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & ptr_mask) | (tag << 48);
}
void* ptr_of(std::uint64_t v) noexcept {
  return reinterpret_cast<void*>(v & ptr_mask);
}
std::uint64_t tag_of(std::uint64_t v) noexcept { return v >> 48; }

constexpr std::size_t round_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) / a * a;
}

// Stamp encoding: 0 = never allocated; otherwise (slot + 2), where slot -1
// is the magazine-less bypass path.
std::uint64_t stamp_for(int slot) noexcept {
  return static_cast<std::uint64_t>(slot + 2);
}

}  // namespace

slab_cache::slab_cache(std::string name, std::size_t object_bytes,
                       std::size_t object_align, std::size_t slab_bytes,
                       std::size_t magazine_bytes)
    : object_pool(std::move(name), object_bytes, object_align) {
  if (object_bytes == 0) {
    throw std::invalid_argument("slab_cache: zero object size");
  }
  std::size_t align = object_align < sizeof(void*) ? sizeof(void*) : object_align;
  // Header: link at cell start, stamp in the 8 bytes before the object.
  hdr_space_ = round_up(2 * sizeof(std::uint64_t), align);
  stride_ = round_up(hdr_space_ + object_bytes, align);
  slab_align_ = align < cache_line_size ? cache_line_size : align;
  slab_bytes_ = round_up(slab_bytes < stride_ ? stride_ : slab_bytes, slab_align_);
  // Magazine capacity by object geometry: as many cells as the byte budget
  // holds, clamped — deep magazines for small cells, shallow for big ones.
  mag_bytes_ = magazine_bytes == 0 ? default_magazine_bytes : magazine_bytes;
  const std::size_t by_budget = mag_bytes_ / stride_;
  mag_slots_ = by_budget < mag_cap_min
                   ? mag_cap_min
                   : (by_budget > mag_cap_max
                          ? mag_cap_max
                          : static_cast<std::uint32_t>(by_budget));
}

slab_cache::~slab_cache() {
  // Run any limbo callbacks still pointing at this pool before the member
  // counters they touch disappear (quiescent by the pool's own lifetime
  // contract — no reader outlives its pool).
  mem::epoch::flush_owner(this);
  for (auto& slot : mags_) {
    magazine* m = slot.load(std::memory_order_acquire);
    if (m != nullptr) magazine_destroy(m);
  }
  for (void* slab : slabs_) std::free(slab);
}

slab_cache::magazine* slab_cache::magazine_create(std::uint32_t slots) {
  // Variably-sized: the item array trails the header, sized for the pool's
  // geometry-derived slot count.
  const std::size_t bytes =
      sizeof(magazine) + static_cast<std::size_t>(slots) * sizeof(void*);
  void* raw = ::operator new(bytes, std::align_val_t{alignof(magazine)});
  return ::new (raw) magazine();
}

void slab_cache::magazine_destroy(magazine* m) noexcept {
  m->~magazine();
  ::operator delete(m, std::align_val_t{alignof(magazine)});
}

slab_cache::magazine& slab_cache::mag(int slot) {
  magazine* m = mags_[slot].load(std::memory_order_acquire);
  if (m == nullptr) {
    m = magazine_create(mag_slots_);
    mags_[slot].store(m, std::memory_order_release);
  }
  return *m;
}

// Restamps the cell for its new owner; true iff it had a previous life.
bool slab_cache::restamp(void* p, int slot) noexcept {
  auto* st = stamp_of(p);
  const bool recycled = st->load(std::memory_order_relaxed) != 0;
  st->store(stamp_for(slot), std::memory_order_relaxed);
  return recycled;
}

void* slab_cache::allocate() {
  const int slot = mem::thread_slot();
  if (slot >= 0) {
    magazine& m = mag(slot);
    std::uint32_t cnt = m.count.load(std::memory_order_relaxed);
    if (cnt == 0) {
      refill(m);
      cnt = m.count.load(std::memory_order_relaxed);
    }
    void* p = m.items()[cnt - 1];
    m.count.store(cnt - 1, std::memory_order_relaxed);
    bump(m.allocs);
    if (restamp(p, slot)) bump(m.recycles);
    return p;
  }
  // Over-subscribed thread: no magazine, straight to the recycle list.
  void* p = nullptr;
  {
    // pop_global reads the link of a cell a racing thread may pop and a
    // racing trim_live may retire; the pin keeps that stale read mapped.
    mem::epoch::pin_guard pin;
    p = pop_global();
  }
  if (p == nullptr) {
    std::uint32_t got = 0;
    carve(&p, 1, got);
  }
  g_allocs_.fetch_add(1, std::memory_order_relaxed);
  if (restamp(p, slot)) g_recycles_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void slab_cache::deallocate(void* p) noexcept {
  const int slot = mem::thread_slot();
  const bool remote =
      stamp_of(p)->load(std::memory_order_relaxed) != stamp_for(slot);
  // Peek, don't create: a free must never allocate (this function is
  // noexcept), so a thread whose first contact with this pool is a
  // cross-worker free pushes straight to the global list; its magazine is
  // created by its first allocate().
  magazine* m =
      slot >= 0 ? mags_[slot].load(std::memory_order_acquire) : nullptr;
  if (m != nullptr) {
    bump(m->frees);
    if (remote) bump(m->remote_frees);
    std::uint32_t cnt = m->count.load(std::memory_order_relaxed);
    if (cnt == mag_slots_) {
      flush(*m);
      cnt = m->count.load(std::memory_order_relaxed);
    }
    m->items()[cnt] = p;
    m->count.store(cnt + 1, std::memory_order_relaxed);
    return;
  }
  g_frees_.fetch_add(1, std::memory_order_relaxed);
  if (remote) g_remote_frees_.fetch_add(1, std::memory_order_relaxed);
  push_global(p, p, 1);
}

void slab_cache::refill(magazine& m) {
  bump(m.refills);
  const std::uint32_t batch = mag_slots_ / 2;
  void** items = m.items();
  std::uint32_t cnt = 0;
  {
    // Pin across the pop batch (see allocate's bypass path). Workers are
    // already pinned by their loop — this only bumps their nesting depth.
    mem::epoch::pin_guard pin;
    while (cnt < batch) {
      void* p = pop_global();
      if (p == nullptr) break;
      items[cnt++] = p;
    }
  }
  if (cnt == 0) {
    carve(items, batch, cnt);
  }
  m.count.store(cnt, std::memory_order_relaxed);
  obs::emit(obs::ev_mag_refill, 0, cnt);
}

void slab_cache::flush(magazine& m) noexcept {
  bump(m.flushes);
  // Hand everything above half the capacity back; link it into one chain,
  // publish with one CAS.
  const std::uint32_t keep = mag_slots_ / 2;
  const std::uint32_t cnt = m.count.load(std::memory_order_relaxed);
  void** items = m.items();
  void* first = items[cnt - 1];
  void* last = items[keep];
  for (std::uint32_t i = cnt - 1; i > keep; --i) {
    link_of(items[i])->store(items[i - 1], std::memory_order_relaxed);
  }
  m.count.store(keep, std::memory_order_relaxed);
  push_global(first, last, cnt - keep);
  obs::emit(obs::ev_mag_flush, 0, cnt - keep);
}

void slab_cache::carve(void** out, std::uint32_t want, std::uint32_t& got) {
  std::lock_guard<std::mutex> lock(grow_mu_);
  for (got = 0; got < want; ++got) {
    if (cursor_ == nullptr ||
        cursor_ + stride_ > slab_end_) {
      if (got > 0) break;  // partial batch is fine once we have one cell
      void* raw = std::aligned_alloc(slab_align_, slab_bytes_);
      if (raw == nullptr) throw std::bad_alloc{};
      slabs_.push_back(raw);
      slab_growths_.fetch_add(1, std::memory_order_relaxed);
      obs::emit(obs::ev_slab_carve, 0,
                static_cast<std::uint32_t>(slab_bytes_ / 1024));
      obs::gauge_add(obs::g_slab_kib,
                     static_cast<std::int64_t>(slab_bytes_ / 1024));
      cursor_ = static_cast<char*>(raw);
      slab_end_ = cursor_ + slab_bytes_;
    }
    void* obj = cursor_ + hdr_space_;
    cursor_ += stride_;
    ::new (link_of(obj)) std::atomic<void*>(nullptr);
    ::new (stamp_of(obj)) std::atomic<std::uint64_t>(0);
    out[got] = obj;
  }
  carved_.fetch_add(got, std::memory_order_relaxed);
}

void* slab_cache::pop_global() noexcept {
  std::uint64_t head = global_head_.load(std::memory_order_acquire);
  for (;;) {
    void* top = ptr_of(head);
    if (top == nullptr) return nullptr;
    void* next = link_of(top)->load(std::memory_order_relaxed);
    const std::uint64_t fresh = pack(next, tag_of(head) + 1);
    if (global_head_.compare_exchange_weak(head, fresh,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire)) {
      global_cells_.fetch_sub(1, std::memory_order_relaxed);
      return top;
    }
  }
}

void slab_cache::push_global(void* first, void* last,
                             std::uint32_t n) noexcept {
  // Count before publishing: once the CAS lands a racing pop may take these
  // cells and decrement, and the gauge must never dip below zero (trim_live
  // sizes its drain by it). The release CAS orders this add before any
  // decrement for the same cells.
  global_cells_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t head = global_head_.load(std::memory_order_acquire);
  for (;;) {
    link_of(last)->store(ptr_of(head), std::memory_order_relaxed);
    const std::uint64_t fresh = pack(first, tag_of(head) + 1);
    if (global_head_.compare_exchange_weak(head, fresh,
                                           std::memory_order_release,
                                           std::memory_order_acquire)) {
      return;
    }
  }
}

// Quiescent-only (contract in pool.hpp): no thread is inside allocate/
// deallocate, and the caller's synchronization (scheduler park/join, thread
// join in tests) ordered every worker's last pool access before this call —
// which is what licenses the plain cross-thread magazine accesses below.
std::size_t slab_cache::trim() {
  trims_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(grow_mu_);

  // Empty every magazine, then drain the global recycle list.
  std::vector<void*> free_cells;
  for (auto& slot : mags_) {
    magazine* m = slot.load(std::memory_order_acquire);
    if (m == nullptr) continue;
    const std::uint32_t cnt = m->count.load(std::memory_order_relaxed);
    void** items = m->items();
    for (std::uint32_t i = 0; i < cnt; ++i) free_cells.push_back(items[i]);
    m->count.store(0, std::memory_order_relaxed);
  }
  for (void* p = pop_global(); p != nullptr; p = pop_global()) {
    free_cells.push_back(p);
  }
  return release_free_slabs(free_cells, /*live=*/false);
}

// Live-traffic trim (contract in pool.hpp): concurrent allocate/deallocate
// is legal. Only the global recycle list is harvested — magazine cells
// belong to their owner threads and count as in use. Conservatism under
// races: a cell freed concurrently with the drain either makes it into our
// set (fine) or lands back on the list after it (its slab just looks
// occupied this round); a concurrent carve only extends the cursor slab or
// appends a new one, and release_free_slabs spares the cursor slab.
std::size_t slab_cache::trim_live() {
  trims_.fetch_add(1, std::memory_order_relaxed);
  // Pin for our own pop_global link walks.
  mem::epoch::pin_guard pin;

  // Drain the recycle list, bounded by its length at entry so this cannot
  // chase a storm of concurrent frees forever.
  std::vector<void*> free_cells;
  std::uint64_t bound = global_cells_.load(std::memory_order_acquire);
  free_cells.reserve(static_cast<std::size_t>(bound));
  while (bound-- > 0) {
    void* p = pop_global();
    if (p == nullptr) break;
    free_cells.push_back(p);
  }
  std::lock_guard<std::mutex> lock(grow_mu_);
  return release_free_slabs(free_cells, /*live=*/true);
}

std::size_t slab_cache::release_free_slabs(const std::vector<void*>& free_cells,
                                           bool live) {
  if (free_cells.empty()) return 0;

  // Per-slab occupancy over the drained set. Cells don't record their slab,
  // so locate each by address range.
  std::vector<char*> bases;
  bases.reserve(slabs_.size());
  for (void* s : slabs_) bases.push_back(static_cast<char*>(s));
  std::sort(bases.begin(), bases.end());
  auto slab_index = [&](void* p) {
    auto it =
        std::upper_bound(bases.begin(), bases.end(), static_cast<char*>(p));
    return static_cast<std::size_t>(it - bases.begin()) - 1;
  };
  std::vector<std::size_t> freed(bases.size(), 0);
  for (void* c : free_cells) ++freed[slab_index(c)];

  // A slab can go when every cell it ever carved is in the set. Every slab
  // is fully carved except the one the cursor still points into. A
  // quiescent trim counts only that slab's carved prefix; a live trim
  // spares it — it is about to serve the next carve anyway, and sparing it
  // means every limbo slab has exactly slab_bytes_/stride_ cells, which is
  // what lets reclaim_slab() keep the limbo_cells gauge without a per-slab
  // side table.
  const std::size_t cells_per_slab = slab_bytes_ / stride_;
  const char* cursor_base =
      cursor_ == nullptr ? nullptr : static_cast<char*>(slabs_.back());
  std::vector<char> gone(bases.size(), 0);
  std::size_t slabs = 0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    std::size_t carved_here = cells_per_slab;
    if (bases[i] == cursor_base) {
      if (live) continue;
      carved_here = static_cast<std::size_t>(cursor_ - bases[i]) / stride_;
    }
    if (freed[i] != carved_here) continue;
    gone[i] = 1;
    ++slabs;
    cells += carved_here;
  }

  // Cells of surviving slabs (pinned by live neighbors) go back onto the
  // global recycle list as one chain; cells of departing slabs leave with
  // their storage.
  void* head = nullptr;
  void* tail = nullptr;
  std::uint32_t kept_cells = 0;
  for (void* c : free_cells) {
    if (gone[slab_index(c)]) continue;
    link_of(c)->store(head, std::memory_order_relaxed);
    if (head == nullptr) tail = c;
    head = c;
    ++kept_cells;
  }
  if (kept_cells > 0) push_global(head, tail, kept_cells);
  if (slabs == 0) return 0;

  cells_released_.fetch_add(cells, std::memory_order_relaxed);
  if (live) {
    slabs_retired_.fetch_add(slabs, std::memory_order_relaxed);
    limbo_cells_.fetch_add(cells, std::memory_order_relaxed);
    obs::emit(obs::ev_slab_retire, 0, static_cast<std::uint32_t>(slabs));
  } else {
    slabs_released_.fetch_add(slabs, std::memory_order_relaxed);
    obs::emit(obs::ev_slab_release, 0, static_cast<std::uint32_t>(slabs));
    obs::gauge_add(obs::g_slab_kib,
                   -static_cast<std::int64_t>(slabs * slab_bytes_ / 1024));
  }

  // Departing slabs leave slabs_. At quiescence no reader is pinned, so
  // they are freed now; under live traffic they are retired into epoch
  // limbo and stay mapped until reclaim_slab runs, so a reader pinned right
  // now may still dereference their cells safely.
  std::vector<void*> kept;
  kept.reserve(slabs_.size() - slabs);
  for (void* s : slabs_) {
    if (!gone[slab_index(s)]) {
      kept.push_back(s);
    } else if (live) {
      mem::epoch::retire(&slab_cache::reclaim_slab, this, s);
    } else {
      if (static_cast<char*>(s) == cursor_base) {
        cursor_ = nullptr;
        slab_end_ = nullptr;
      }
      std::free(s);
    }
  }
  slabs_.swap(kept);
  return slabs;
}

void slab_cache::reclaim_slab(void* self, void* slab) noexcept {
  auto* c = static_cast<slab_cache*>(self);
  std::free(slab);
  c->slabs_reclaimed_.fetch_add(1, std::memory_order_relaxed);
  c->limbo_cells_.fetch_sub(c->slab_bytes_ / c->stride_,
                            std::memory_order_relaxed);
  obs::emit(obs::ev_slab_reclaim, 0,
            static_cast<std::uint32_t>(c->slab_bytes_ / 1024));
  obs::gauge_add(obs::g_slab_kib,
                 -static_cast<std::int64_t>(c->slab_bytes_ / 1024));
}

pool_stats slab_cache::stats() const {
  pool_stats s;
  s.allocs = g_allocs_.load(std::memory_order_relaxed);
  s.frees = g_frees_.load(std::memory_order_relaxed);
  s.recycles = g_recycles_.load(std::memory_order_relaxed);
  s.remote_frees = g_remote_frees_.load(std::memory_order_relaxed);
  s.carved = carved_.load(std::memory_order_relaxed);
  s.slab_growths = slab_growths_.load(std::memory_order_relaxed);
  s.trims = trims_.load(std::memory_order_relaxed);
  s.slabs_released = slabs_released_.load(std::memory_order_relaxed);
  s.cells_released = cells_released_.load(std::memory_order_relaxed);
  s.slabs_retired = slabs_retired_.load(std::memory_order_relaxed);
  s.slabs_reclaimed = slabs_reclaimed_.load(std::memory_order_relaxed);
  s.recycle_cells = global_cells_.load(std::memory_order_relaxed);
  s.limbo_cells = limbo_cells_.load(std::memory_order_relaxed);
  for (const auto& slot : mags_) {
    const magazine* m = slot.load(std::memory_order_acquire);
    if (m == nullptr) continue;
    s.allocs += m->allocs.load(std::memory_order_relaxed);
    s.frees += m->frees.load(std::memory_order_relaxed);
    s.recycles += m->recycles.load(std::memory_order_relaxed);
    s.remote_frees += m->remote_frees.load(std::memory_order_relaxed);
    s.magazine_refills += m->refills.load(std::memory_order_relaxed);
    s.magazine_flushes += m->flushes.load(std::memory_order_relaxed);
    s.magazine_cells += m->count.load(std::memory_order_relaxed);
  }
  return s;
}

std::size_t slab_cache::slab_count() const {
  std::lock_guard<std::mutex> lock(grow_mu_);
  return slabs_.size();
}

}  // namespace spdag
