#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace sdft {

namespace {

/// Worker registration: which pool (if any) the current thread belongs to.
/// Workers of nested pools see their own pool, not the outer one.
thread_local const thread_pool* tls_pool = nullptr;
thread_local std::size_t tls_index = thread_pool::npos;

/// The pool_tally counting batches created on the current thread: the
/// innermost live tally on a caller's thread, the running job's batch's
/// tally on a worker.
thread_local pool_tally* tls_tally = nullptr;

}  // namespace

double pool_counters::occupancy_since(const pool_counters& before) const {
  std::size_t sum = 0;
  std::size_t max = 0;
  for (std::size_t i = 0; i < executed.size(); ++i) {
    const std::size_t prior = i < before.executed.size() ? before.executed[i] : 0;
    const std::size_t ran = executed[i] - prior;
    sum += ran;
    max = std::max(max, ran);
  }
  if (max == 0) return 0.0;
  return static_cast<double>(sum) /
         (static_cast<double>(executed.size()) * static_cast<double>(max));
}

thread_pool::thread_pool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  deques_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<work_deque>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t thread_pool::worker_index() const {
  return tls_pool == this ? tls_index : npos;
}

pool_counters thread_pool::counters() const {
  pool_counters out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.stolen = stolen_.load(std::memory_order_relaxed);
  out.executed.reserve(deques_.size());
  for (const auto& dq : deques_) {
    out.executed.push_back(dq->executed.load(std::memory_order_relaxed));
  }
  return out;
}

bool thread_pool::try_pop(work_deque& dq, bool steal, job& out) {
  if (dq.approx_size.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard lock(dq.mutex);
  if (dq.jobs.empty()) return false;
  if (steal) {
    out = std::move(dq.jobs.front());
    dq.jobs.pop_front();
  } else {
    out = std::move(dq.jobs.back());
    dq.jobs.pop_back();
  }
  dq.approx_size.store(dq.jobs.size(), std::memory_order_relaxed);
  queued_.fetch_sub(1);
  return true;
}

thread_pool::job thread_pool::take(std::size_t me) {
  job j;
  if (try_pop(*deques_[me], /*steal=*/false, j)) return j;
  const std::size_t n = deques_.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (try_pop(*deques_[(me + i) % n], /*steal=*/true, j)) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      return j;
    }
  }
  return j;  // empty: nothing to run anywhere
}

void thread_pool::worker_loop(std::size_t me) {
  tls_pool = this;
  tls_index = me;
  obs::set_thread_label("pool-worker-" + std::to_string(me));
  for (;;) {
    job j = take(me);
    if (!j.fn) {
      std::unique_lock lock(mutex_);
      if (stopping_ && queued_.load() == 0) return;
      sleepers_.fetch_add(1);
      work_available_.wait(
          lock, [this] { return stopping_ || queued_.load() > 0; });
      sleepers_.fetch_sub(1);
      if (stopping_ && queued_.load() == 0) return;
      continue;
    }
    std::exception_ptr error;
    tls_tally = j.owner->tally_;
    try {
      j.fn();
    } catch (...) {
      error = std::current_exception();
    }
    tls_tally = nullptr;
    j.fn = nullptr;  // captures go before the batch can be seen drained
    count(me, 1, *j.owner);
    j.owner->finish(std::move(error));
  }
}

void thread_pool::count(std::size_t me, std::size_t n, const batch& owner) {
  deques_[me]->executed.fetch_add(n, std::memory_order_relaxed);
  if (owner.tally_ != nullptr) {
    owner.tally_->executed_[me].fetch_add(n, std::memory_order_relaxed);
  }
}

thread_pool::batch::batch(thread_pool& pool)
    : pool_(pool),
      tally_(tls_tally != nullptr && tls_tally->pool_ == &pool ? tls_tally
                                                               : nullptr) {}

thread_pool::batch::~batch() {
  try { wait(); } catch (...) {}  // an unclaimed exception is dropped
}

void thread_pool::batch::submit(std::function<void()> fn) {
  pending_.fetch_add(1);
  const std::size_t me = pool_.worker_index();
  const std::size_t target =
      me != npos
          ? me
          : pool_.next_deque_.fetch_add(1, std::memory_order_relaxed) %
                pool_.deques_.size();
  // queued_ goes up before the push; it may transiently exceed the deques'
  // contents, which only makes a scanner re-check a deque.
  pool_.queued_.fetch_add(1);
  pool_.submitted_.fetch_add(1, std::memory_order_relaxed);
  work_deque& dq = *pool_.deques_[target];
  {
    std::lock_guard lock(dq.mutex);
    dq.jobs.push_back(job{std::move(fn), this});
    dq.approx_size.store(dq.jobs.size(), std::memory_order_relaxed);
  }
  // Wake a sleeper if there might be one. The seq_cst ordering between the
  // queued_ increment above and this sleepers_ read pairs with the reverse
  // order in worker_loop (sleepers_ increment, then queued_ check under
  // mutex_), so a worker about to sleep either sees the new job or is
  // notified under the lock.
  if (pool_.sleepers_.load() > 0) {
    std::lock_guard lock(pool_.mutex_);
    pool_.work_available_.notify_one();
  }
}

void thread_pool::batch::finish(std::exception_ptr error) {
  if (error) {
    std::lock_guard lock(mutex_);
    if (!first_exception_) first_exception_ = std::move(error);
  }
  // Only the job taking the last count (the waiter gave up its own) touches
  // the batch after its decrement, under mutex_, which the waiter needs.
  if (pending_.fetch_sub(1) == 1) {
    std::lock_guard lock(mutex_);
    drained_flag_ = true;
    drained_.notify_all();
  }
}

void thread_pool::batch::wait() {
  std::unique_lock lock(mutex_);
  if (pending_.fetch_sub(1) != 1) {
    drained_.wait(lock, [this] { return drained_flag_; });
  }
  drained_flag_ = false;
  pending_.store(1);  // the waiter's count again, for reuse
  if (std::exception_ptr e = std::exchange(first_exception_, nullptr)) {
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void parallel_for(thread_pool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  thread_pool::batch jobs(pool);
  // Each job claims indices until none are left, then rethrows the first
  // exception it caught. The caller only waits: its own allocations stay
  // independent of scheduling, as with per-index jobs.
  const auto job = [&] {
    std::exception_ptr error;
    std::size_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;
         ++ran) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    pool.count(pool.worker_index(), ran, jobs);
    if (error) std::rethrow_exception(error);
  };
  for (std::size_t k = std::min(n, pool.size()); k > 0; --k) jobs.submit(job);
  jobs.wait();
}

pool_tally::pool_tally(const thread_pool* pool)
    : pool_(pool),
      outer_(std::exchange(tls_tally, this)),
      executed_(pool != nullptr ? pool->size() : 0) {}

pool_tally::~pool_tally() { tls_tally = outer_; }

std::size_t pool_tally::executed() const {
  std::size_t sum = 0;
  for (const auto& n : executed_) sum += n.load(std::memory_order_relaxed);
  return sum;
}

double pool_tally::occupancy() const {
  pool_counters ran;
  for (const auto& n : executed_) {
    ran.executed.push_back(n.load(std::memory_order_relaxed));
  }
  return ran.occupancy_since(pool_counters{});
}

void parallel_for(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->size() > 1 &&
      pool->worker_index() == thread_pool::npos) {
    return parallel_for(*pool, n, fn);
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace sdft
