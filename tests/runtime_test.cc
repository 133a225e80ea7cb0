// Tests for the parallel sweep engine (src/runtime) and the sharded obs
// layer it relies on: pool lifecycle, exception propagation, ParallelFor
// coverage, the bit-identical-at-any-thread-count sweep contract, and
// sharded-metrics merge equivalence.
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/intra_runner.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "trace/generator.h"

namespace sunflow::runtime {
namespace {

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), HardwareConcurrency());
  ThreadPool inline_pool(1);
  EXPECT_EQ(inline_pool.size(), 1);
  ThreadPool clamped(-3);
  EXPECT_EQ(clamped.size(), HardwareConcurrency());
}

TEST(ThreadPoolTest, SubmitRunsInlineOnSizeOnePool) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  // Inline execution: already done by the time Submit returned.
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool must run every queued task before joining.
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t seen = 0;
  pool.ParallelFor(7, 8, [&](std::size_t i) { seen = i; ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 7u);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestFailingIndex) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    try {
      pool.ParallelFor(0, 100, [&](std::size_t i) {
        if (i % 3 == 1) {  // fails at 1, 4, 7, ... — lowest is 1
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "ParallelFor should have thrown (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 8,
                       [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> ok{0};
  pool.ParallelFor(0, 8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A task may fan out on the pool that is running it (ParallelFor inside
  // ParallelFor), so a waiting task must steal queued work instead of
  // blocking a worker slot. A pool smaller than the total task fan-out
  // deadlocks without stealing.
  runtime::ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(0, 4, [&](std::size_t) {
    pool.ParallelFor(0, 4, [&](std::size_t) {
      leaves.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(leaves.load(), 16);
}

TEST(TaskSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(TaskSeed(42, 7), TaskSeed(42, 7));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(TaskSeed(0, i));
  EXPECT_EQ(seeds.size(), 1000u);  // adjacent indices must not collide
  EXPECT_NE(TaskSeed(1, 0), TaskSeed(2, 0));  // base seed matters
}

TEST(SweepRunnerTest, ResultsAndSeedsIndependentOfThreadCount) {
  auto run = [](int threads) {
    SweepConfig cfg;
    cfg.threads = threads;
    cfg.base_seed = 99;
    SweepRunner runner(cfg);
    return runner.Run<std::uint64_t>(
        64, /*capture_events=*/false,
        [](TaskContext& ctx) { return ctx.seed ^ ctx.index; });
  };
  const auto serial = run(1);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.results, serial.results) << "threads " << threads;
  }
}

TEST(SweepRunnerTest, EventBuffersComeBackInTaskOrder) {
  SweepConfig cfg;
  cfg.threads = 4;
  SweepRunner runner(cfg);
  const auto sweep =
      runner.Run<int>(16, /*capture_events=*/true, [](TaskContext& ctx) {
        obs::Event e;
        e.type = obs::EventType::kCoflowAdmitted;
        e.t = static_cast<double>(ctx.index);
        ctx.sink->OnEvent(e);
        return 0;
      });
  ASSERT_EQ(sweep.events.size(), 16u);
  for (std::size_t i = 0; i < sweep.events.size(); ++i) {
    ASSERT_EQ(sweep.events[i].size(), 1u);
    EXPECT_EQ(sweep.events[i][0].t, static_cast<double>(i));
  }
}

// The tentpole contract, end to end: RunIntra over a real (small) trace
// produces bit-identical records and merged event streams at any thread
// count.
TEST(SweepRunnerTest, RunIntraBitIdenticalAcrossThreadCounts) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 40;
  tc.num_ports = 24;
  const Trace trace = GenerateSyntheticTrace(tc);

  auto run = [&](int threads) {
    obs::MemorySink sink;
    exp::IntraRunConfig cfg;
    cfg.threads = threads;
    cfg.sink = &sink;
    auto result = exp::RunIntra(trace, exp::IntraAlgorithm::kSunflow, cfg);
    return std::pair{std::move(result), sink.events()};
  };

  const auto [serial, serial_events] = run(1);
  for (int threads : {2, 8}) {
    const auto [parallel, parallel_events] = run(threads);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      const auto &a = serial.records[i], &b = parallel.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.cct, b.cct) << "coflow " << a.id << " threads " << threads;
      EXPECT_EQ(a.tcl, b.tcl);
      EXPECT_EQ(a.tpl, b.tpl);
      EXPECT_EQ(a.switching_count, b.switching_count);
    }
    ASSERT_EQ(parallel_events.size(), serial_events.size());
    for (std::size_t i = 0; i < serial_events.size(); ++i) {
      EXPECT_EQ(parallel_events[i].type, serial_events[i].type);
      EXPECT_EQ(parallel_events[i].t, serial_events[i].t)
          << "event " << i << " threads " << threads;
      EXPECT_EQ(parallel_events[i].coflow, serial_events[i].coflow);
    }
  }
}

TEST(ShardedMetricsTest, MergeMatchesSingleRegistry) {
  // Reference: everything recorded into one single-threaded registry.
  obs::MetricsRegistry reference;
  for (int i = 0; i < 1000; ++i) {
    reference.GetCounter("t.count").Increment();
    reference.GetHistogram("t.hist").Record(static_cast<double>(i % 97));
  }

  // Same values recorded through a sharded registry from 8 threads.
  obs::ShardedMetricsRegistry sharded;
  ThreadPool pool(8);
  pool.ParallelFor(0, 1000, [&](std::size_t i) {
    sharded.GetCounter("t.count").Increment();
    sharded.GetHistogram("t.hist").Record(static_cast<double>(i % 97));
  });

  const obs::MetricsRegistry merged = sharded.Merged();
  ASSERT_NE(merged.FindCounter("t.count"), nullptr);
  EXPECT_EQ(merged.FindCounter("t.count")->value(),
            reference.FindCounter("t.count")->value());
  const obs::Histogram* mh = merged.FindHistogram("t.hist");
  const obs::Histogram* rh = reference.FindHistogram("t.hist");
  ASSERT_NE(mh, nullptr);
  EXPECT_EQ(mh->count(), rh->count());
  EXPECT_DOUBLE_EQ(mh->sum(), rh->sum());
  EXPECT_DOUBLE_EQ(mh->min(), rh->min());
  EXPECT_DOUBLE_EQ(mh->max(), rh->max());
  for (double pct : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(mh->ValueAtPercentile(pct), rh->ValueAtPercentile(pct));
  }
}

TEST(ShardedMetricsTest, RowsAreIdenticalAtAnyThreadCount) {
  auto record = [](int threads) {
    obs::ShardedMetricsRegistry reg;
    ThreadPool pool(threads);
    pool.ParallelFor(0, 500, [&](std::size_t i) {
      reg.GetCounter("r.count").Increment(i % 5);
      reg.GetHistogram("r.hist").Record(static_cast<double>(i));
    });
    return reg.Merged().Rows();
  };
  const auto serial = record(1);
  const auto parallel = record(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].kind, parallel[i].kind);
    EXPECT_EQ(serial[i].count, parallel[i].count);
    EXPECT_DOUBLE_EQ(serial[i].value, parallel[i].value);
    EXPECT_DOUBLE_EQ(serial[i].p95, parallel[i].p95);
  }
}

TEST(ShardedMetricsTest, ResetZeroesEveryShard) {
  obs::ShardedMetricsRegistry reg;
  ThreadPool pool(4);
  pool.ParallelFor(0, 100,
                   [&](std::size_t) { reg.GetCounter("z").Increment(); });
  ASSERT_NE(reg.FindCounter("z"), nullptr);
  EXPECT_EQ(reg.FindCounter("z")->value(), 100u);
  reg.Reset();
  ASSERT_NE(reg.FindCounter("z"), nullptr);  // registration survives
  EXPECT_EQ(reg.FindCounter("z")->value(), 0u);
}

// TSan target: concurrent recording through the process-wide registry
// must be race-free (each thread only touches its own shard).
TEST(ShardedMetricsTest, ConcurrentGlobalRecordingIsRaceFree) {
  auto& metrics = obs::GlobalMetrics();
  const std::uint64_t before =
      metrics.FindCounter("test.stress")
          ? metrics.FindCounter("test.stress")->value()
          : 0;
  ThreadPool pool(8);
  pool.ParallelFor(0, 4000, [&](std::size_t) {
    metrics.GetCounter("test.stress").Increment();
    metrics.GetHistogram("test.stress_hist").Record(1.0);
  });
  EXPECT_EQ(metrics.FindCounter("test.stress")->value(), before + 4000);
}

}  // namespace
}  // namespace sunflow::runtime
