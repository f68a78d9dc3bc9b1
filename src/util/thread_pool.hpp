#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdft {

/// Snapshot of a pool's work-distribution counters. Counters are cumulative
/// over the pool's lifetime; callers interested in one phase take a snapshot
/// before and after and difference them.
struct pool_counters {
  std::vector<std::size_t> executed;  ///< per worker: jobs + claimed indices

  /// Load balance of the work executed since `before`: mean per-worker
  /// executed count divided by the maximum, in [0, 1]. 1 means every worker
  /// ran the same amount; 0 means nothing ran at all.
  double occupancy_since(const pool_counters& before) const;
};

class pool_tally;

/// Fixed-size thread pool: N workers sleep on one condition variable over
/// one shared job queue. An analysis_engine builds one at construction;
/// every parallel stage of every concurrent caller shares it. Work reaches
/// the pool only through parallel_for, whose claim jobs are the queue's
/// entries.
class thread_pool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit thread_pool(std::size_t threads = 0);

  /// Joins the workers; no parallel_for on this pool may still be running.
  ~thread_pool();
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  std::size_t size() const { return executed_.size(); }

  /// Index of the calling thread within this pool ([0, size())), or npos
  /// when called from a thread that is not a worker of this pool.
  std::size_t worker_index() const;

  /// Snapshot of the cumulative work-distribution counters, every
  /// caller's work included (pool_tally counts one caller's).
  pool_counters counters() const;

 private:
  friend void parallel_for(thread_pool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  struct claim_loop;

  /// Worker `me` runs one claim job of `loop`.
  void claim(claim_loop& loop, std::size_t me);
  void worker_loop(std::size_t me);

  std::vector<std::atomic<std::size_t>> executed_;  ///< per worker
  std::mutex mutex_;  ///< guards queue_ and stopping_
  std::condition_variable work_available_;
  std::deque<claim_loop*> queue_;  ///< one entry per claim job
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< last: they use every member above
};

/// One caller's share of a pool's work: per worker, the jobs and claimed
/// indices (as pool_counters::executed) of the parallel_for calls made on
/// the constructing thread while the tally lives. Concurrent callers of one
/// pool each count only their own work, which a before/after snapshot of
/// counters() cannot do. The tally installs itself on the constructing
/// thread and restores the previous one when destroyed (the innermost tally
/// counts), so it must be destroyed on that thread.
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
  friend void parallel_for(thread_pool& pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  const thread_pool* const pool_;
  pool_tally* const outer_;  ///< the tally this one shadows
  std::vector<std::atomic<std::size_t>> executed_;
};

/// Runs `fn(i)` for i in [0, n) across the pool and waits for completion:
/// min(n, size()) claim jobs, each taking indices in list order from a
/// shared counter, while the caller waits. If `fn` throws for some index —
/// including the very first — every index still runs and the first
/// exception is rethrown afterwards. A call from one of the pool's own
/// workers runs a plain loop on that worker instead.
void parallel_for(thread_pool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// The same on an optional pool; a null or one-worker pool runs a plain
/// loop on the calling thread.
void parallel_for(thread_pool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sdft
