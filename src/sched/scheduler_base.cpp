#include "sched/scheduler_base.hpp"

#include <cassert>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/single_writer.hpp"
#include "util/topology.hpp"

namespace spdag {

namespace {
thread_local int tls_worker_id = -1;
thread_local const scheduler_base* tls_scheduler = nullptr;
}  // namespace

int scheduler_base::current_worker_id() noexcept { return tls_worker_id; }

int scheduler_base::my_worker_id() const noexcept {
  return tls_scheduler == this ? tls_worker_id : -1;
}

void scheduler_base::fifo::push(vertex* v) {
  std::lock_guard<std::mutex> lock(mu);
  items.push_back(v);
  size.fetch_add(1, std::memory_order_release);
}

vertex* scheduler_base::fifo::pop() {
  if (size.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu);
  if (items.empty()) return nullptr;
  vertex* v = items.front();
  items.pop_front();
  size.fetch_sub(1, std::memory_order_release);
  return v;
}

scheduler_base::scheduler_base(scheduler_config cfg)
    : pin_threads_(cfg.pin_threads) {
  const std::size_t n = cfg.workers == 0 ? hardware_core_count() : cfg.workers;
  rows_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows_.push_back(std::make_unique<padded<row>>());
  }
}

scheduler_base::~scheduler_base() {
  assert(threads_.empty() && "a derived destructor must call stop() first");
}

void scheduler_base::start() {
  threads_.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void scheduler_base::stop() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void scheduler_base::inject(vertex* v) { injected_.push(v); }

vertex* scheduler_base::pop_injected() { return injected_.pop(); }

bool scheduler_base::any_busy() const {
  for (const auto& r : rows_) {
    if (r->value.busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void scheduler_base::unpark_some() {
  if (parked_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
}

void scheduler_base::worker_main(std::size_t id) {
  tls_worker_id = static_cast<int>(id);
  tls_scheduler = this;
  if (pin_threads_) pin_current_thread(id);

  // Workers stay epoch-pinned for their whole loop: every stale read a
  // worker can perform — SNZI pair reuse inside execute(), out-set node
  // walks in a drain, the pool's own recycle-list pops — is then covered by
  // the pin, and trim_live() can run concurrently without a stop-the-world
  // phase. The pin is REFRESHED (never held across an epoch boundary while
  // stale pointers exist) at the loop top, where the worker provably holds
  // no runtime pointers; the schedulers tick() the advance machinery at
  // their idle transitions, so a busy scheduler makes epoch progress without
  // any dedicated reclaimer thread.
  mem::epoch::pin_guard eg;

  while (!stopping()) {
    mem::epoch::refresh();
    if (vertex* v = next_vertex(id)) {
      execute(id, v);
    } else if (!idle_work(id)) {
      park(id);
    }
  }
}

void scheduler_base::execute(std::size_t id, vertex* v) {
  dag_engine* eng = engine_.load(std::memory_order_acquire);
  assert(eng != nullptr && "work found with no engine attached");
  const bool is_final = (v == stop_vertex_.load(std::memory_order_relaxed));
  // `busy` brackets execute() for run()'s epilogue wait and service_idle(),
  // which scan every worker's flag with acquire loads. The relaxed store of
  // true is sequenced before every release operation through which another
  // thread can learn of this vertex's effects: the push of a child (a ws
  // deque push, or, once execute() has returned, the transfer store in
  // private's communicate() that gives a child to a thief), the depart that
  // makes a fin ready, the service's inflight_ decrement in a completion
  // body. A reader that learned of any of them (run() through done_, the
  // service through inflight_ == 0) therefore reads this true, or the
  // release store of false after execute(), which also publishes the
  // vertex's recycle. So a scan that finds every flag false proves that no
  // execute() the reader depends on is still running.
  row& me = rows_[id]->value;
  me.busy.store(true, std::memory_order_relaxed);
  obs::gauge_add(obs::g_runnable, -1);
  {
    obs::span_guard sg(obs::sp_work);
    eng->execute(v);
  }
  // Counted before the release store of false, so a reader that finds
  // every flag false also reads every execution in totals().
  bump(me.stats.executions);
  me.busy.store(false, std::memory_order_release);
  if (is_final) {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.store(true, std::memory_order_release);
    done_cv_.notify_all();
  }
}

void scheduler_base::park(std::size_t id) {
  // Out of work: park briefly. The timeout (rather than precise wakeup
  // accounting) keeps the protocol simple and bounds lost-wakeup cost.
  // Unpin across the wait — a sleeping worker must not stall the global
  // epoch — and re-pin on wake, before the loop touches anything pooled.
  // The shutdown check is an if-guard (not a return) so the unpin/pin
  // bracket stays balanced; the loop condition re-checks shutdown.
  mem::epoch::unpin();
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    if (!stopping()) {
      bump(stats(id).parks);
      parked_.fetch_add(1, std::memory_order_acq_rel);
      {
        obs::span_guard sg(obs::sp_idle);
        park_cv_.wait_for(lock, park_timeout);
      }
      parked_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  mem::epoch::pin();
}

void scheduler_base::run(dag_engine& engine, vertex* root, vertex* final_v) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(!service_.load(std::memory_order_acquire) &&
         "run() may not overlap resident-service mode");
  engine_.store(&engine, std::memory_order_release);
  stop_vertex_.store(final_v, std::memory_order_release);
  done_.store(false, std::memory_order_release);
  enqueue(root);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
  }
  // The final vertex ran, but drain vertices (no finish waits on them) may
  // still be queued or running, holding pinned future states, and a worker
  // may still be in the epilogue of a vertex (recycling it). Spin out both
  // so that returning from run() implies every drain delivered and every
  // vertex recycled. The count is read first: the acquire that reads zero
  // makes the last drain's busy flag visible to the scan, so the scan
  // waits out that vertex's recycle too. Clearing the stop vertex keeps a
  // later service-mode vertex that recycles its address from firing the
  // done_ notification.
  backoff b;
  while (engine.drains_pending() != 0 || any_busy()) b.pause();
  stop_vertex_.store(nullptr, std::memory_order_release);
}

void scheduler_base::begin_service(dag_engine& engine) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(done_.load(std::memory_order_acquire) &&
         "begin_service may not overlap run()");
  assert(!service_.load(std::memory_order_acquire) &&
         "begin_service called twice");
  service_.store(true, std::memory_order_release);
  engine_.store(&engine, std::memory_order_release);
}

void scheduler_base::end_service() {
  assert(service_.load(std::memory_order_acquire) &&
         "end_service without begin_service");
  // The caller guarantees no further roots will be injected; spin out
  // whatever is still in flight. Termination: with no external producer,
  // workers only shrink the queued population, and parked workers re-check
  // on their timeout.
  backoff b;
  while (!service_idle()) b.pause();
  engine_.store(nullptr, std::memory_order_release);
  service_.store(false, std::memory_order_release);
}

bool scheduler_base::service_idle() const {
  const dag_engine* eng = engine_.load(std::memory_order_acquire);
  return injected_.size.load(std::memory_order_acquire) == 0 &&
         (eng == nullptr || eng->drains_pending() == 0) && !any_busy();
}

scheduler_totals scheduler_base::sum_rows() const {
  scheduler_totals t;
  for (const auto& r : rows_) {
    const counters& c = r->value.stats;
    t.executions += c.executions.load(std::memory_order_relaxed);
    t.steals += c.steals.load(std::memory_order_relaxed);
    t.failed_steal_sweeps += c.failed_steal_sweeps.load(std::memory_order_relaxed);
    t.parks += c.parks.load(std::memory_order_relaxed);
  }
  return t;
}

scheduler_totals scheduler_base::totals() const {
  scheduler_totals t = sum_rows();
  t.executions -= baseline_.executions.load(std::memory_order_relaxed);
  t.steals -= baseline_.steals.load(std::memory_order_relaxed);
  t.failed_steal_sweeps -=
      baseline_.failed_steal_sweeps.load(std::memory_order_relaxed);
  t.parks -= baseline_.parks.load(std::memory_order_relaxed);
  return t;
}

void scheduler_base::reset_totals() {
  const scheduler_totals t = sum_rows();
  baseline_.executions.store(t.executions, std::memory_order_relaxed);
  baseline_.steals.store(t.steals, std::memory_order_relaxed);
  baseline_.failed_steal_sweeps.store(t.failed_steal_sweeps,
                                      std::memory_order_relaxed);
  baseline_.parks.store(t.parks, std::memory_order_relaxed);
}

}  // namespace spdag
