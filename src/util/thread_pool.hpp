#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sdft {

/// Snapshot of a pool's work-distribution counters. Counters are cumulative
/// over the pool's lifetime; callers interested in one phase take a snapshot
/// before and after and difference them.
struct pool_counters {
  std::size_t submitted = 0;  ///< jobs submitted to the pool
  std::size_t stolen = 0;     ///< jobs a worker took from another worker's deque
  std::vector<std::size_t> executed;  ///< per worker: jobs + claimed indices

  /// Load balance of the work executed since `before`: mean per-worker
  /// executed count divided by the maximum, in [0, 1]. 1 means every worker
  /// ran the same amount; 0 means nothing ran at all.
  double occupancy_since(const pool_counters& before) const;
};

class pool_tally;

/// Fixed-size thread pool with per-worker work-stealing deques. An
/// analysis_engine builds one at construction; every parallel stage of
/// every concurrent caller shares it.
///
/// Each worker owns a deque: jobs submitted from a worker thread go to the
/// back of its own deque (no shared lock), and the worker pops from the
/// back (LIFO, depth-first locality). Idle workers steal from the front of
/// other deques (FIFO, breadth-side work, i.e. the largest unexplored
/// subproblems). Jobs submitted from outside the pool are distributed
/// round-robin. Jobs reach the pool only through a batch, which scopes
/// waiting and errors to one caller.
class thread_pool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  class batch;

  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit thread_pool(std::size_t threads = 0);

  /// Joins the workers; every batch on this pool must be gone by then.
  ~thread_pool();

  std::size_t size() const { return workers_.size(); }

  /// Index of the calling thread within this pool ([0, size())), or npos
  /// when called from a thread that is not a worker of this pool.
  std::size_t worker_index() const;

  /// Snapshot of the cumulative work-distribution counters, every
  /// caller's work included (pool_tally counts one caller's).
  pool_counters counters() const;

 private:
  friend void parallel_for(thread_pool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  struct job {
    std::function<void()> fn;
    batch* owner = nullptr;
  };

  /// One worker's deque, padded so the per-deque locks and counters of
  /// adjacent workers do not share cache lines.
  struct alignas(64) work_deque {
    std::mutex mutex;
    std::deque<job> jobs;
    std::atomic<std::size_t> approx_size{0};  ///< lock-free emptiness probe
    std::atomic<std::size_t> executed{0};
  };

  /// Worker `me` ran `n` jobs or claimed indices for a job of `owner`.
  void count(std::size_t me, std::size_t n, const batch& owner);
  bool try_pop(work_deque& dq, bool steal, job& out);
  job take(std::size_t me);
  void worker_loop(std::size_t me);

  std::vector<std::unique_ptr<work_deque>> deques_;
  std::vector<std::thread> workers_;

  std::atomic<std::size_t> queued_{0};  ///< jobs sitting in deques
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> stolen_{0};
  std::atomic<std::size_t> next_deque_{0};  ///< round-robin for external submits

  std::mutex mutex_;  ///< guards work_available_ and stopping_
  std::condition_variable work_available_;
  bool stopping_ = false;
};

/// The jobs one caller runs on a pool. Jobs may submit more jobs to their
/// own batch; wait() blocks until that whole tree has run (no job is
/// skipped), then rethrows the first exception a job raised; the batch stays
/// usable. The destructor waits too and drops an unclaimed exception.
/// Neither may run on a worker of the same pool.
class thread_pool::batch {
 public:
  /// The pool_tally installed on the calling thread, if it counts `pool`,
  /// counts this batch's work.
  explicit batch(thread_pool& pool);
  ~batch();

  /// From one of this batch's jobs, lands on the calling worker's deque.
  void submit(std::function<void()> fn);
  void wait();

 private:
  friend class thread_pool;
  void finish(std::exception_ptr error);  ///< a worker ran one of our jobs

  thread_pool& pool_;
  pool_tally* const tally_;  ///< nullptr: counted by the pool only
  std::atomic<std::size_t> pending_{1};  ///< unfinished jobs + the waiter's 1
  std::mutex mutex_;
  std::condition_variable drained_;
  bool drained_flag_ = false;  ///< set by the last job to finish
  std::exception_ptr first_exception_;
};

/// One caller's share of a pool's work: per worker, the jobs and claimed
/// indices (as pool_counters::executed) of the batches created on the
/// constructing thread while the tally lives, and of the batches their
/// jobs create. Concurrent callers of one pool each count only their own
/// work, which a before/after snapshot of counters() cannot do. The tally
/// installs itself on the constructing thread and restores the previous
/// one when destroyed (the innermost tally counts), so it must be
/// destroyed on that thread, after every batch it counts.
class pool_tally {
 public:
  /// Counts work on `pool`; a null pool counts nothing.
  explicit pool_tally(const thread_pool* pool);
  ~pool_tally();
  pool_tally(const pool_tally&) = delete;
  pool_tally& operator=(const pool_tally&) = delete;

  /// Jobs and claimed indices counted so far, over all workers.
  std::size_t executed() const;

  /// Load balance of the counted work, as pool_counters::occupancy_since;
  /// 0 when nothing ran.
  double occupancy() const;

 private:
  friend class thread_pool;

  const thread_pool* const pool_;
  pool_tally* const outer_;  ///< the tally this one shadows
  std::vector<std::atomic<std::size_t>> executed_;
};

/// Runs `fn(i)` for i in [0, n) across the pool and waits for completion:
/// min(n, size()) jobs in one batch, each claiming indices in list order
/// from a shared counter, while the caller waits. If `fn` throws for some
/// index — including the very first — every index still runs and the
/// first exception is rethrown afterwards. Must not be called from a
/// worker of `pool`.
void parallel_for(thread_pool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// The same on an optional pool; a null or one-worker pool, or a call
/// from one of the pool's own workers, runs a plain loop instead.
void parallel_for(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sdft
