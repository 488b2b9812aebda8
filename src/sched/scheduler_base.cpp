#include "sched/scheduler_base.hpp"

#include <cassert>
#include <utility>

#include "mem/epoch.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/single_writer.hpp"
#include "util/spin_wait.hpp"
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
  // A pusher retries try_lock as pop() does, for the same reason: a
  // service client pushes right as a completion lets it in, which is when
  // that worker pops, and a pusher asleep on the mutex would make the
  // worker's unlock pay a futex wake before it runs the vertex.
  while (!mu.try_lock()) cpu_relax();
  std::lock_guard<std::mutex> lock(mu, std::adopt_lock);
  items.push_back(v);
  // seq_cst, like park()'s read of it: see the argument above park().
  size.fetch_add(1, std::memory_order_seq_cst);
}

vertex* scheduler_base::fifo::pop() {
  // Every spinning worker probes the size, so several can see one vertex
  // at once. They retry try_lock while the fifo is non-empty: queueing on
  // a contended std::mutex would put the losers to sleep, and make the
  // winner's unlock pay a futex wake before it runs the vertex. A pop
  // returns null only once it has seen the fifo empty, so a worker woken
  // for an injected vertex cannot pass it by and go stealing instead
  // (under private, a steal request can wait out a whole vertex).
  while (size.load(std::memory_order_seq_cst) != 0) {
    std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
    if (lock.owns_lock()) {
      if (items.empty()) return nullptr;
      vertex* v = items.front();
      items.pop_front();
      size.fetch_sub(1, std::memory_order_release);
      return v;
    }
    cpu_relax();
  }
  return nullptr;
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
  // Wakes every worker, registered or about to register: a worker re-reads
  // shutdown_ after its registration (park()), and one that registered
  // before this store finds its word reset here.
  shutdown_.store(true, std::memory_order_seq_cst);
  for (auto& r : rows_) wake(r->value.asleep, 0);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void scheduler_base::enqueue(vertex* v) {
  obs::gauge_add(obs::g_runnable, 1);
  if (const int id = my_worker_id(); id >= 0) {
    const auto me = static_cast<std::size_t>(id);
    assert(rows_[me]->value.busy.load(std::memory_order_relaxed) &&
           "a worker enqueues only inside execute()");
    // Hold v: this worker runs it next, so it needs no queue and no wake.
    // The vertex it displaces is the one a thief may take.
    v = std::exchange(rows_[me]->value.held, v);
    if (v == nullptr) return;
    push(me, v);
  } else {
    inject(v);
  }
  unpark_some();
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
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  for (auto& r : rows_) {
    std::atomic<std::uint32_t>& word = r->value.asleep;
    std::uint32_t registered = 1;
    if (word.load(std::memory_order_relaxed) == 1 &&
        word.compare_exchange_strong(registered, 0,
                                     std::memory_order_seq_cst)) {
      word.notify_one();
      return;
    }
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
  // no stale runtime pointers (a held vertex is live, like its queue's);
  // the schedulers tick() the advance machinery at their idle transitions,
  // so a busy scheduler makes epoch progress without any dedicated
  // reclaimer thread.
  mem::epoch::pin_guard eg;

  while (!stopping()) {
    mem::epoch::refresh();
    vertex* v = next_vertex(id);
    if (v == nullptr) {
      obs::span_guard sg(obs::sp_steal);
      v = steal(id);
    }
    if (v == nullptr) v = idle(id);
    if (v != nullptr) execute(id, v);
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
  // body or a rejecting launcher. A reader that learned of any of them
  // (run() through done_, the service through inflight_ == 0) therefore
  // reads this true, or the release store of false after execute(), which
  // also publishes the vertex's recycle. So a scan that finds every flag false proves that no
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
  if (is_final) wake(done_, 1);
}

vertex* scheduler_base::idle(std::size_t id) {
  // No vertex anywhere: a natural epoch communication point (no stale
  // pointers are held), so tick the advance machinery first. Then spin:
  // local work is polled on every call, which is cheap, and the sweeps
  // that touch other workers' deques back off exponentially, so that a
  // spinning worker does not slow the busy ones. The spin counts as idle
  // time in the trace, sweeps included.
  obs::span_guard sg(obs::sp_idle);
  mem::epoch::tick();
  constexpr std::uint32_t max_sweep_gap = 64;  // calls between sweeps
  std::uint32_t gap = 1;
  std::uint32_t until_sweep = 1;
  vertex* v = nullptr;
  const bool found = spin_until([&] {
    mem::epoch::refresh();
    if (stopping()) return true;
    v = next_vertex(id);
    if (v == nullptr && --until_sweep == 0) {
      if (gap < max_sweep_gap) gap *= 2;
      until_sweep = gap;
      v = steal(id);
    }
    return v != nullptr;
  });
  return found ? v : park(id);
}

// Parking without a lost wake-up. A worker blocks only on its own word
// (row::asleep), and only after three steps: it stores 1 there, increments
// sleepers_, and then re-checks its sources without waiting on anyone (a
// waker may already count on it). An enqueue publishes its vertex and then
// calls unpark_some(), which reads sleepers_ and, when it is non-zero,
// moves one registered word from 1 to 0 and notifies it.
//
//  * External injection (inject(): run()'s root, a service client's
//    launchers) bumps the fifo's size with a seq_cst RMW, and unpark_some()
//    then reads sleepers_ seq_cst. The sleeper bumps sleepers_ seq_cst and
//    then reads the size seq_cst, and does not block unless it is zero.
//    This is Dekker's pattern: in the single order of seq_cst operations
//    one side comes first, so either the sleeper's probe finds the vertex,
//    or the injector reads a count that includes the sleeper. In the
//    second case its scan finds that sleeper's word at 1 (the store of 1
//    happens before the count it read) and wakes it, or finds it at 0
//    because the worker is already awake: woken for another vertex, or
//    cancelled after its re-check found work. A woken worker pops the fifo
//    before it looks anywhere else, and a pop gives up only on an empty
//    fifo. A worker that cancels finds out whether a waker took its word
//    meanwhile, and if so passes that wake on to the next registered
//    sleeper, since it may run something else for a long time before it
//    looks at the fifo again.
//  * A worker's own enqueue (from inside execute()) holds its vertex in
//    the worker's slot and wakes no one: the owner runs that vertex next,
//    and it never sleeps holding one, because next_vertex() takes the slot
//    before anything else, here and in every poll of the idle spin. The
//    vertex the hold displaces goes to the worker's queue, and that push
//    reads sleepers_ without a fence of its own, so it can miss a sleeper
//    that is registering at that moment. That costs parallelism, never
//    progress: an owner never sleeps with a non-empty queue, so it runs
//    the vertex itself unless a thief takes it first. The re-check needs
//    only local work and the fifo; last_look() narrows the window (ws
//    tries every other deque once), and private skips it, because a steal
//    request to a busy victim waits for that victim's next poll.
//  * stop() stores shutdown_ seq_cst and then resets every word; the
//    sleeper reads shutdown_ seq_cst after its registration. Same pattern.
//
// A sleeping worker is unpinned, so it never holds back the global epoch;
// while every worker sleeps, epoch advance comes from trims.
vertex* scheduler_base::park(std::size_t id) {
  row& me = rows_[id]->value;
  on_park(id);
  me.asleep.store(1, std::memory_order_seq_cst);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  vertex* v = next_vertex(id);
  if (v == nullptr) v = last_look(id);
  bool pass_on = false;
  if (v == nullptr && injected_.size.load(std::memory_order_seq_cst) == 0 &&
      !shutdown_.load(std::memory_order_seq_cst)) {
    bump(stats(id).parks);
    mem::epoch::unpin();
    me.asleep.wait(1, std::memory_order_seq_cst);  // returns at 0
    mem::epoch::pin();
  } else {
    // Cancelling. A word already at 0 means a waker chose this worker.
    pass_on = me.asleep.exchange(0, std::memory_order_relaxed) == 0;
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  if (pass_on) unpark_some();
  on_wake(id);
  return v;
}

void scheduler_base::run(dag_engine& engine, vertex* root, vertex* final_v) {
  assert(&engine.exec() == static_cast<executor*>(this) &&
         "engine must be bound to this scheduler");
  assert(!service_.load(std::memory_order_acquire) &&
         "run() may not overlap resident-service mode");
  engine_.store(&engine, std::memory_order_release);
  stop_vertex_.store(final_v, std::memory_order_release);
  done_.store(0, std::memory_order_relaxed);
  enqueue(root);  // an injection: wakes one sleeper, its pushes the rest
  wait_while(done_, 0);
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
  assert(done_.load(std::memory_order_acquire) == 1 &&
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
  // workers only shrink the queued population, and no queued vertex waits
  // on a sleeper: an injected one woke a sleeper or is seen by an awake
  // worker (the argument above park()), and an owner never sleeps while
  // its slot or its deque holds work.
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
