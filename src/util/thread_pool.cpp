#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace sdft {

namespace {

/// Worker registration: which pool (if any) the current thread belongs to.
/// Workers of nested pools see their own pool, not the outer one.
thread_local const thread_pool* tls_pool = nullptr;
thread_local std::size_t tls_index = thread_pool::npos;

/// The innermost live pool_tally on the current thread.
thread_local pool_tally* tls_tally = nullptr;

}  // namespace

/// One parallel_for call, on its caller's stack: the indices its claim jobs
/// share and the jobs still running.
struct thread_pool::claim_loop {
  claim_loop(std::size_t n, const std::function<void(std::size_t)>& fn,
             pool_tally* tally, std::size_t jobs)
      : n(n), fn(fn), tally(tally), running(jobs) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  pool_tally* const tally;  ///< nullptr: counted by the pool only
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  ///< guards running and error
  std::condition_variable finished;
  std::size_t running;  ///< claim jobs not yet finished
  std::exception_ptr error;
};

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

thread_pool::thread_pool(std::size_t threads)
    : executed_(threads != 0
                    ? threads
                    : std::max(1u, std::thread::hardware_concurrency())) {
  workers_.reserve(executed_.size());
  for (std::size_t i = 0; i < executed_.size(); ++i) {
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
  out.executed.reserve(executed_.size());
  for (const auto& n : executed_) {
    out.executed.push_back(n.load(std::memory_order_relaxed));
  }
  return out;
}

void thread_pool::worker_loop(std::size_t me) {
  tls_pool = this;
  tls_index = me;
  obs::set_thread_label("pool-worker-" + std::to_string(me));
  for (;;) {
    claim_loop* loop = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      loop = queue_.front();
      queue_.pop_front();
    }
    claim(*loop, me);
  }
}

void thread_pool::claim(claim_loop& loop, std::size_t me) {
  std::exception_ptr error;
  std::size_t ran = 1;  // the job itself, then each claimed index
  for (std::size_t i;
       (i = loop.next.fetch_add(1, std::memory_order_relaxed)) < loop.n;
       ++ran) {
    try {
      loop.fn(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  executed_[me].fetch_add(ran, std::memory_order_relaxed);
  if (loop.tally != nullptr) {
    loop.tally->executed_[me].fetch_add(ran, std::memory_order_relaxed);
  }
  // The caller returns, ending `loop`, once it sees running reach 0 under
  // the lock, so nothing touches `loop` after this block.
  std::lock_guard lock(loop.mutex);
  if (error && !loop.error) loop.error = std::move(error);
  if (--loop.running == 0) loop.finished.notify_one();
}

void parallel_for(thread_pool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool.worker_index() != thread_pool::npos) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (n == 0) return;
  // The caller only waits: its own allocations stay independent of
  // scheduling, as with per-index jobs.
  const std::size_t jobs = std::min(n, pool.size());
  thread_pool::claim_loop loop(
      n, fn,
      tls_tally != nullptr && tls_tally->pool_ == &pool ? tls_tally : nullptr,
      jobs);
  {
    std::lock_guard lock(pool.mutex_);
    pool.queue_.insert(pool.queue_.end(), jobs, &loop);
  }
  for (std::size_t k = 0; k < jobs; ++k) pool.work_available_.notify_one();
  std::unique_lock lock(loop.mutex);
  loop.finished.wait(lock, [&loop] { return loop.running == 0; });
  if (loop.error) {
    lock.unlock();
    std::rethrow_exception(loop.error);
  }
}

void parallel_for(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->size() > 1) return parallel_for(*pool, n, fn);
  for (std::size_t i = 0; i < n; ++i) fn(i);
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

}  // namespace sdft
