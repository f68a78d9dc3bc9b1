#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/fox_glynn.hpp"
#include "util/rng.hpp"
#include "util/sorted_set.hpp"
#include "util/spin_mutex.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

TEST(Rng, DeterministicForSeed) {
  rng a(7);
  rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  rng r(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(7), 7u);
}

TEST(Rng, BetweenInclusive) {
  rng r(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentred) {
  rng r(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

double poisson_pmf(double lambda, std::size_t k) {
  return std::exp(-lambda + k * std::log(lambda) - log_factorial(k));
}

TEST(FoxGlynn, MatchesDirectPmfSmallLambda) {
  const auto w = fox_glynn(2.5, 1e-12);
  for (std::size_t k = w.left; k <= w.right; ++k) {
    EXPECT_NEAR(w.weight(k), poisson_pmf(2.5, k), 1e-10);
  }
}

TEST(FoxGlynn, MatchesDirectPmfLargeLambda) {
  const auto w = fox_glynn(500.0, 1e-12);
  for (std::size_t k = w.left; k <= w.right; k += 17) {
    EXPECT_NEAR(w.weight(k), poisson_pmf(500.0, k), 1e-9);
  }
}

TEST(FoxGlynn, WeightsSumToOne) {
  for (double lambda : {0.01, 1.0, 7.3, 123.0, 4000.0}) {
    const auto w = fox_glynn(lambda, 1e-10);
    const double sum =
        std::accumulate(w.weights.begin(), w.weights.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "lambda=" << lambda;
  }
}

TEST(FoxGlynn, WindowCoversRequestedMass) {
  const double lambda = 42.0;
  const auto w = fox_glynn(lambda, 1e-8);
  double outside = 0.0;
  for (std::size_t k = 0; k < w.left; ++k) outside += poisson_pmf(lambda, k);
  for (std::size_t k = w.right + 1; k < w.right + 200; ++k) {
    outside += poisson_pmf(lambda, k);
  }
  EXPECT_LT(outside, 1e-7);
}

TEST(FoxGlynn, ZeroLambdaIsPointMass) {
  const auto w = fox_glynn(0.0, 1e-10);
  EXPECT_EQ(w.left, 0u);
  EXPECT_EQ(w.right, 0u);
  EXPECT_DOUBLE_EQ(w.weight(0), 1.0);
}

TEST(FoxGlynn, RejectsBadArguments) {
  EXPECT_THROW(fox_glynn(-1.0, 1e-10), numeric_error);
  EXPECT_THROW(fox_glynn(1.0, 0.0), numeric_error);
  EXPECT_THROW(fox_glynn(1.0, 1.0), numeric_error);
}

TEST(SortedSet, NormalizeSortsAndDedupes) {
  std::vector<int> v{3, 1, 3, 2, 1};
  sorted_set::normalize(v);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

TEST(SortedSet, SubsetAndContains) {
  const std::vector<int> super{1, 2, 4, 6};
  EXPECT_TRUE(sorted_set::is_subset({2, 6}, super));
  EXPECT_FALSE(sorted_set::is_subset({2, 5}, super));
  EXPECT_TRUE(sorted_set::is_subset({}, super));
  EXPECT_TRUE(sorted_set::contains(super, 4));
  EXPECT_FALSE(sorted_set::contains(super, 5));
}

TEST(SortedSet, InsertEraseKeepInvariant) {
  std::vector<int> v{1, 3};
  sorted_set::insert(v, 2);
  sorted_set::insert(v, 2);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
  sorted_set::erase(v, 1);
  sorted_set::erase(v, 99);
  EXPECT_EQ(v, (std::vector<int>{2, 3}));
}

TEST(SortedSet, BinaryOperations) {
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{2, 3, 4};
  EXPECT_EQ(sorted_set::set_union(a, b), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sorted_set::set_intersection(a, b), (std::vector<int>{2, 3}));
  EXPECT_EQ(sorted_set::set_difference(a, b), (std::vector<int>{1}));
}

TEST(ThreadPool, RunsAllJobs) {
  thread_pool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  thread_pool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, WaitIdleRethrowsFirstJobException) {
  thread_pool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1);
      if (i % 5 == 0) throw std::runtime_error("job failed");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Every job ran despite the failures — the pool drains, it doesn't stop.
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, UsableAfterRethrow) {
  thread_pool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The exception was claimed; the pool accepts and runs new jobs.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, UnclaimedExceptionDoesNotTerminate) {
  // An exception never collected by wait_idle() must be dropped by the
  // destructor, not terminate the process.
  thread_pool pool(1);
  pool.submit([] { throw std::runtime_error("dropped"); });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(pool, hits.size(),
                            [&hits](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i == 7) throw std::runtime_error("index 7");
                            }),
               std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  thread_pool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForExceptionFromFirstChunk) {
  thread_pool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(pool, 32,
                            [&ran](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 0) throw std::runtime_error("index 0");
                            }),
               std::runtime_error);
  // The failing first index must not abandon the remaining jobs.
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitFromWorkerJob) {
  // Jobs submitted from inside a worker land on that worker's own deque;
  // wait_idle() must still cover the whole transitive job tree.
  thread_pool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      for (int j = 0; j < 16; ++j) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPool, WorkerIndexIdentifiesWorkers) {
  thread_pool pool(4);
  EXPECT_EQ(pool.worker_index(), thread_pool::npos);
  std::mutex mutex;
  std::set<std::size_t> seen;
  parallel_for(pool, 64, [&](std::size_t) {
    const std::size_t me = pool.worker_index();
    ASSERT_LT(me, pool.size());
    std::lock_guard lock(mutex);
    seen.insert(me);
  });
  EXPECT_EQ(pool.worker_index(), thread_pool::npos);
  EXPECT_GE(seen.size(), 1u);
  for (std::size_t w : seen) EXPECT_LT(w, pool.size());
}

TEST(ThreadPool, CountersTrackSubmissionsAndExecutions) {
  thread_pool pool(2);
  const pool_counters before = pool.counters();
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  const pool_counters after = pool.counters();
  EXPECT_EQ(after.submitted - before.submitted, 50u);
  ASSERT_EQ(after.executed.size(), pool.size());
  std::size_t executed = 0;
  for (std::size_t i = 0; i < after.executed.size(); ++i) {
    executed += after.executed[i] - before.executed[i];
  }
  EXPECT_EQ(executed, 50u);
  EXPECT_GT(after.occupancy_since(before), 0.0);
  EXPECT_LE(after.occupancy_since(before), 1.0);
}

TEST(ThreadPool, ChildJobsAreStolenFromBusyWorker) {
  // The parent job parks on its worker and spins until both children have
  // run. The children sit on the parent's own deque, so the only way they
  // can ever run is another worker stealing them — this deadlocks (and
  // times out) if stealing is broken.
  thread_pool pool(4);
  std::atomic<int> done{0};
  pool.submit([&pool, &done] {
    for (int i = 0; i < 2; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    while (done.load() < 2) std::this_thread::yield();
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
  EXPECT_GE(pool.counters().stolen, 2u);
}

TEST(SpinMutex, ExcludesUnderContention) {
  // Four threads hammer one short critical section, so most acquisitions
  // meet a held lock and some outlast the spin and block. A lost update
  // or two threads inside at once shows as a wrong count.
  spin_mutex mutex;
  long counter = 0;
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  constexpr int threads = 4;
  constexpr int rounds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) {
        std::lock_guard lock(mutex);
        if (inside.fetch_add(1) != 0) overlapped.store(true);
        ++counter;
        inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(counter, static_cast<long>(threads) * rounds);
}

TEST(TextTable,AlignsColumnsAndRejectsBadRows) {
  text_table t({"setting", "value"});
  t.add_row({"horizon", "24h"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| setting | value |"), std::string::npos);
  EXPECT_NE(s.find("| horizon | 24h   |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), model_error);
}

TEST(Formatting, SciAndDuration) {
  EXPECT_EQ(sci(4.09e-9), "4.09e-09");
  EXPECT_EQ(duration_str(7.9), "7.9s");
  EXPECT_EQ(duration_str(132.0), "2m 12s");
  // Rounded once: minutes and seconds carry together, and a value that
  // rounds up to the next unit switches format.
  EXPECT_EQ(duration_str(119.7), "2m 00s");
  EXPECT_EQ(duration_str(59.97), "1m 00s");
  EXPECT_EQ(duration_str(0.0123), "12.3ms");
  EXPECT_EQ(duration_str(0.0), "0.0ms");
  EXPECT_EQ(duration_str(0.99996), "1.0s");
}

}  // namespace
}  // namespace sdft
