#include <gtest/gtest.h>

#include <algorithm>
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
  EXPECT_EQ(pool.counters().executed, (std::vector<std::size_t>{0, 0}));
}

/// Jobs plus claimed indices the pool ran since `before`.
std::size_t executed_since(const thread_pool& pool,
                           const pool_counters& before) {
  const pool_counters after = pool.counters();
  std::size_t executed = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    executed += after.executed[w] - before.executed[w];
  }
  return executed;
}

TEST(ThreadPool, ParallelForRunsOneJobPerWorker) {
  // The claim loop: min(n, size()) jobs, each claiming indices from a
  // shared counter; a worker's executed counts its job and its indices.
  thread_pool pool(3);
  const pool_counters before = pool.counters();
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(executed_since(pool, before), hits.size() + 3);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  const pool_counters after = pool.counters();
  parallel_for(pool, 2, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(executed_since(pool, after), 2u + 2u);
}

TEST(ThreadPool, ParallelForOnNullOrOneWorkerPoolRunsInline) {
  // A plain loop on the calling thread, in index order.
  thread_pool single(1);
  for (thread_pool* pool : {static_cast<thread_pool*>(nullptr), &single}) {
    std::vector<std::size_t> order;
    parallel_for(pool, 5, [&](std::size_t i) {
      EXPECT_EQ(single.worker_index(), thread_pool::npos);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
  EXPECT_EQ(single.counters().executed, (std::vector<std::size_t>{0}));
}

TEST(ThreadPool, ParallelForFromOwnWorkerRunsInline) {
  // An index of the pool that calls parallel_for on the same pool must not
  // block its worker waiting for jobs that need that worker: the inner
  // loop runs in order on that worker and queues nothing.
  thread_pool pool(2);
  std::vector<std::atomic<int>> hits(64);
  const pool_counters before = pool.counters();
  parallel_for(pool, 4, [&pool, &hits](std::size_t outer) {
    const std::size_t me = pool.worker_index();
    ASSERT_LT(me, pool.size());
    for (thread_pool* inner_pool : {&pool, static_cast<thread_pool*>(nullptr)}) {
      std::vector<std::size_t> order;
      parallel_for(inner_pool, 8, [&](std::size_t inner) {
        EXPECT_EQ(pool.worker_index(), me);
        order.push_back(inner);
        hits[outer * 16 + (inner_pool != nullptr ? 0 : 8) + inner].fetch_add(1);
      });
      EXPECT_EQ(order.size(), 8u);
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
  });
  // Two outer jobs and their four indices; the inner loops add nothing.
  EXPECT_EQ(executed_since(pool, before), 2u + 4u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
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
  // The pool runs the next call as usual.
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
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
  // The failing first index must not abandon the remaining indices.
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ConcurrentParallelForsAreIsolated) {
  // Two external threads share one pool. A's index 0 throws and its index
  // 1 runs until released: only A's call throws, and B's call returns,
  // every index run, while A's long index is still running.
  thread_pool pool(3);
  std::atomic<bool> release_a{false};
  std::atomic<bool> a_long_started{false};
  std::atomic<bool> a_long_done{false};
  bool a_threw = false;

  std::thread a([&] {
    try {
      parallel_for(pool, 2, [&](std::size_t i) {
        if (i == 0) throw std::runtime_error("caller A");
        a_long_started = true;
        while (!release_a.load()) std::this_thread::yield();
        a_long_done = true;
      });
    } catch (const std::runtime_error&) {
      a_threw = true;
    }
  });
  while (!a_long_started.load()) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(50);
  bool b_threw = false;
  std::thread b([&] {
    try {
      parallel_for(pool, hits.size(),
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
    } catch (...) {
      b_threw = true;
    }
    EXPECT_FALSE(a_long_done.load());
  });
  b.join();
  EXPECT_FALSE(b_threw);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  release_a = true;
  a.join();
  EXPECT_TRUE(a_threw);
  EXPECT_TRUE(a_long_done.load());
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

TEST(ThreadPool, CountersTrackExecutions) {
  thread_pool pool(2);
  const pool_counters before = pool.counters();
  std::atomic<int> count{0};
  parallel_for(pool, 50, [&count](std::size_t) { count.fetch_add(1); });
  const pool_counters after = pool.counters();
  EXPECT_EQ(count.load(), 50);
  ASSERT_EQ(after.executed.size(), pool.size());
  EXPECT_EQ(executed_since(pool, before), 50u + 2u);
  EXPECT_GT(after.occupancy_since(before), 0.0);
  EXPECT_LE(after.occupancy_since(before), 1.0);
}

TEST(PoolTally, CountsOnlyItsOwnCallersWork) {
  // Two callers share one pool, each under its own tally: each tally
  // counts exactly its caller's jobs and claimed indices, while the
  // pool's cumulative counters hold both.
  thread_pool pool(3);
  const pool_counters before = pool.counters();
  const std::size_t sizes[2] = {1000, 37};
  std::size_t counted[2] = {0, 0};
  double occupancy[2] = {-1.0, -1.0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      const pool_tally tally(&pool);
      for (int round = 0; round < 20; ++round) {
        parallel_for(pool, sizes[c], [](std::size_t) {});
      }
      counted[c] = tally.executed();
      occupancy[c] = tally.occupancy();
    });
  }
  for (std::thread& t : callers) t.join();
  std::size_t expected_total = 0;
  for (int c = 0; c < 2; ++c) {
    const std::size_t expected = 20 * (sizes[c] + 3);  // indices + jobs
    EXPECT_EQ(counted[c], expected) << "caller " << c;
    EXPECT_GT(occupancy[c], 0.0);
    EXPECT_LE(occupancy[c], 1.0);
    expected_total += expected;
  }
  const pool_counters after = pool.counters();
  std::size_t executed = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    executed += after.executed[w] - before.executed[w];
  }
  EXPECT_EQ(executed, expected_total);
}

TEST(PoolTally, InnermostTallyCounts) {
  thread_pool pool(2);
  thread_pool other(2);
  const pool_tally outer(&pool);
  {
    const pool_tally inner(&pool);
    parallel_for(pool, 10, [](std::size_t) {});
    EXPECT_EQ(inner.executed(), 12u);
  }
  EXPECT_EQ(outer.executed(), 0u);
  parallel_for(pool, 10, [](std::size_t) {});
  EXPECT_EQ(outer.executed(), 12u);
  // Work on another pool is not this tally's.
  parallel_for(other, 10, [](std::size_t) {});
  EXPECT_EQ(outer.executed(), 12u);
  // Nor is work under a tally of no pool.
  {
    const pool_tally none(nullptr);
    parallel_for(pool, 10, [](std::size_t) {});
    EXPECT_EQ(none.executed(), 0u);
    EXPECT_EQ(none.occupancy(), 0.0);
  }
  EXPECT_EQ(outer.executed(), 12u);
}

TEST(RequireModel, BuildsItsMessageOnlyWhenTheCheckFails) {
  int built = 0;
  int checked = 0;
  const auto message = [&built](const std::string& name) {
    ++built;
    return "model: '" + name + "' is undefined";
  };
  require_model(++checked > 0, message("A"));
  require_model(true, message("B"));
  EXPECT_EQ(checked, 1);  // the condition runs exactly once
  EXPECT_EQ(built, 0);
  try {
    require_model(++checked < 0, message("C"));
    FAIL() << "a failing check must throw";
  } catch (const model_error& e) {
    EXPECT_STREQ(e.what(), "model: 'C' is undefined");
  }
  EXPECT_EQ(checked, 2);
  EXPECT_EQ(built, 1);
  EXPECT_THROW(require_model(false, "a literal message"), model_error);
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
