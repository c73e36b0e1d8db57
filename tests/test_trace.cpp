// Tests for the trace recorder: disabled fast path, span/counter emission,
// concurrent recording, JSON shape, and the contract the trace_check CTest
// leans on — the virtual-timeline intervals in the trace reproduce
// DeviceCounters::overlapped_seconds when recomputed pairwise — and that
// cumulative() samples of a registry counter stay monotone under contention.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "device/device.h"
#include "device/executor.h"
#include "obs/metrics.h"

namespace fastsc::obs {
namespace {

TEST(Trace, DisabledRecorderDropsEverything) {
  TraceRecorder rec;
  rec.set_enabled(false);
  rec.complete(kWallPid, 1, "span", "cat", 0.0, 1.0);
  rec.counter("c", 1.0, 0.0);
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(Trace, DisabledScopedSpanRecordsNothing) {
  trace().set_enabled(false);
  trace().clear();
  {
    ScopedSpan span("invisible");
  }
  EXPECT_EQ(trace().event_count(), 0u);
}

TEST(Trace, ScopedSpanRecordsCompleteEventOnWallTrack) {
  const TraceEnableScope on(true);
  trace().clear();
  {
    ScopedSpan span("work", "test", {{"n", 7.0}});
  }
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_EQ(e.name, "work");
  EXPECT_EQ(e.cat, "test");
  EXPECT_EQ(e.phase, 'X');
  EXPECT_EQ(e.pid, kWallPid);
  EXPECT_GT(e.tid, 0u);
  EXPECT_GT(e.ts_us, 0.0);
  EXPECT_GE(e.dur_us, 0.0);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].key, "n");
  EXPECT_DOUBLE_EQ(e.args[0].num, 7.0);
}

TEST(Trace, CounterEventCarriesValue) {
  const TraceEnableScope on(true);
  trace().clear();
  trace().counter("lanczos.worst_residual", 0.125, 10.0);
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'C');
  EXPECT_EQ(events[0].name, "lanczos.worst_residual");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].args[0].num, 0.125);
}

TEST(Trace, CumulativeSamplesCounterValueAtRecordTime) {
  TraceRecorder rec;
  rec.set_enabled(true);
  Counter c;
  c.add(3);
  const double before = wall_now_us();
  rec.cumulative("cache.hits", c);
  const double after = wall_now_us();
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'C');
  EXPECT_EQ(events[0].name, "cache.hits");
  EXPECT_EQ(events[0].pid, kWallPid);
  EXPECT_GE(events[0].ts_us, before);
  EXPECT_LE(events[0].ts_us, after);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].args[0].num, 3.0);
}

TEST(Trace, CumulativeIsMirroredAtTraceLogLevel) {
  TraceRecorder rec;
  rec.set_enabled(true);
  Counter c;
  c.add(5);
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kTrace);
  testing::internal::CaptureStderr();
  rec.cumulative("d2d.transfers", c);
  const std::string err = testing::internal::GetCapturedStderr();
  set_log_level(saved);
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  // The mirror line carries the recorded sample's own value and timestamp.
  std::ostringstream expected;
  expected << "counter d2d.transfers = " << events[0].args[0].num << " @"
           << events[0].ts_us << "us";
  EXPECT_NE(err.find(expected.str()), std::string::npos) << err;
}

// Regression for the d2d.* dip scaling_smoke caught: add(), a timestamp and
// value() taken as three unlocked steps let a later timestamp carry a smaller
// total.  Hammer one shared counter from many threads, sampling it both
// straight into a shared recorder and through per-thread bound recorders
// that tee into it; every recorder's series must be non-decreasing by ts,
// and a final sample taken after every add must read the full total.
TEST(Trace, CumulativeSeriesMonotoneUnderContention) {
  constexpr int kThreads = 6;
  constexpr int kAddsEach = 2000;
  constexpr std::int64_t kTotal = std::int64_t{kThreads} * kAddsEach;
  Counter shared;
  TraceRecorder common;
  common.set_enabled(true);
  std::vector<std::unique_ptr<TraceRecorder>> jobs;
  for (int t = 0; t < kThreads; ++t) {
    jobs.push_back(std::make_unique<TraceRecorder>());
    jobs.back()->set_enabled(true);
    jobs.back()->set_tee(&common);
  }
  std::atomic<int> done_adding{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const TraceBindScope bind(jobs[static_cast<usize>(t)].get());
      for (int i = 0; i < kAddsEach; ++i) {
        shared.add();
        if (i % 2 == 0) {
          common.cumulative("hammer", shared);
        } else {
          trace().cumulative("hammer", shared);
        }
      }
      done_adding.fetch_add(1);
      while (done_adding.load() < kThreads) std::this_thread::yield();
      trace().cumulative("hammer", shared);
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(shared.value(), kTotal);

  const auto check_series = [&](const TraceRecorder& rec, usize expected) {
    std::vector<TraceEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), expected);
    // Stable: equal timestamps keep recording order, as check_trace.py's
    // counter_series does.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_us < b.ts_us;
                     });
    double prev = 0;
    for (const TraceEvent& e : events) {
      ASSERT_EQ(e.name, "hammer");
      ASSERT_EQ(e.phase, 'C');
      ASSERT_GE(e.args[0].num, prev) << "dip at ts " << e.ts_us;
      prev = e.args[0].num;
    }
    EXPECT_DOUBLE_EQ(prev, static_cast<double>(kTotal));
  };
  const usize via_bind = kAddsEach / 2 + 1;  // odd i plus the final sample
  for (const auto& job : jobs) check_series(*job, via_bind);
  check_series(common, static_cast<usize>(kTotal) + kThreads);
}

TEST(Trace, ConcurrentSpansAllLandOnDistinctTracks) {
  const TraceEnableScope on(true);
  trace().clear();
  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        ScopedSpan span("burst");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(),
            static_cast<usize>(kThreads) * static_cast<usize>(kSpansEach));
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<usize>(kThreads));
}

TEST(Trace, JsonHasMetadataTracksAndEvents) {
  const TraceEnableScope on(true);
  trace().clear();
  trace().complete(kVirtualPid, kLinkTid, "h2d", "transfer", 0.0, 5.0,
                   {{"bytes", 4096.0}});
  std::ostringstream os;
  trace().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"PCIe link\""), std::string::npos);
  EXPECT_NE(json.find("\"compute engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

TEST(Trace, EnableScopeRestoresPreviousState) {
  trace().set_enabled(false);
  {
    const TraceEnableScope on(true);
    EXPECT_TRUE(trace_enabled());
    {
      const TraceEnableScope inner(false);  // "false" must not disable
      EXPECT_TRUE(trace_enabled());
    }
    EXPECT_TRUE(trace_enabled());
  }
  EXPECT_FALSE(trace_enabled());
}

/// Pairwise link-x-compute overlap from the virtual-timeline events, the
/// same sum DeviceContext accumulates incrementally (and the recomputation
/// tools/check_trace.py performs on the JSON).
double recompute_overlap_seconds(const std::vector<TraceEvent>& events) {
  std::vector<std::pair<double, double>> link;
  std::vector<std::pair<double, double>> compute;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.pid != kVirtualPid) continue;
    const std::pair<double, double> iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.tid == kLinkTid) link.push_back(iv);
    if (e.tid == kComputeTid) compute.push_back(iv);
  }
  double total_us = 0;
  for (const auto& [cb, ce] : link) {
    for (const auto& [kb, ke] : compute) {
      const double ov = std::min(ce, ke) - std::max(cb, kb);
      if (ov > 0) total_us += ov;
    }
  }
  return total_us * 1e-6;
}

TEST(Trace, ExecutorOverlapMatchesDeviceCounters) {
  device::TransferModel model;
  model.bandwidth_bytes_per_sec = 1e6;
  model.efficiency = 1.0;
  model.latency_seconds = 0;
  device::DeviceContext ctx(1, model);
  device::PipelineExecutor exec(ctx, 2);
  device::DeviceBuffer<unsigned char> buf_a(ctx, 500000);
  device::DeviceBuffer<unsigned char> buf_b(ctx, 500000);
  std::vector<unsigned char> host(500000, 0);

  const TraceEnableScope on(true);
  trace().clear();
  using Exec = device::PipelineExecutor;
  // Double buffering: tile B uploads over [0, 0.5] on the link while a
  // kernel occupies the compute engine over [0, 1].
  exec.add(Exec::kTransferStream, "h2d-b", [&] {
    device::copy_h2d(ctx, buf_b.data(), host.data(), host.size());
  });
  exec.add(Exec::kComputeStream, "kernel-a", [&] {
    device::launch(
        ctx, 1, [p = buf_a.data()](index_t) { p[0] = 1; },
        device::LaunchConfig{.modeled_seconds = 1.0});
  });
  exec.run();

  const device::DeviceCounters c = ctx.counters_snapshot();
  ASSERT_DOUBLE_EQ(c.overlapped_seconds, 0.5);
  const std::vector<TraceEvent> events = trace().snapshot();
  EXPECT_NEAR(recompute_overlap_seconds(events), c.overlapped_seconds, 1e-9);

  // The wall timeline carries the executor node spans alongside.
  bool saw_h2d_node = false;
  bool saw_kernel_node = false;
  for (const TraceEvent& e : events) {
    if (e.pid != kWallPid) continue;
    if (e.name == "h2d-b") saw_h2d_node = true;
    if (e.name == "kernel-a") saw_kernel_node = true;
  }
  EXPECT_TRUE(saw_h2d_node);
  EXPECT_TRUE(saw_kernel_node);
}

// Two service jobs can hold TraceEnableScope with overlapping, non-nested
// lifetimes.  The scope is a refcount, not a save/restore of a global bool:
// destroying the first scope must not disable tracing while the second is
// still alive.
TEST(Trace, EnableScopesAreRefcountedNotSaveRestore) {
  trace().set_enabled(false);
  auto a = std::make_unique<TraceEnableScope>(true);
  auto b = std::make_unique<TraceEnableScope>(true);
  EXPECT_TRUE(trace().enabled());
  a.reset();  // non-LIFO teardown: "job A" finishes first
  EXPECT_TRUE(trace().enabled());
  b.reset();
  EXPECT_FALSE(trace().enabled());
}

TEST(Trace, EnableScopesFromConcurrentThreads) {
  trace().set_enabled(false);
  std::atomic<int> saw_disabled{0};
  std::vector<std::thread> jobs;
  for (int t = 0; t < 4; ++t) {
    jobs.emplace_back([&] {
      for (int r = 0; r < 200; ++r) {
        const TraceEnableScope on(true);
        if (!trace().enabled()) saw_disabled.fetch_add(1);
      }
    });
  }
  for (std::thread& j : jobs) j.join();
  EXPECT_EQ(saw_disabled.load(), 0);
  EXPECT_FALSE(trace().enabled());
}

TEST(Trace, SequentialDeviceWorkProducesNoOverlap) {
  device::DeviceContext ctx(1);
  const TraceEnableScope on(true);
  trace().clear();
  device::DeviceBuffer<double> buf(ctx, 1024);
  std::vector<double> host(1024, 1.0);
  buf.copy_from_host(host);
  device::launch(ctx, 1024, [p = buf.data()](index_t i) { p[i] *= 2; });
  buf.copy_to_host(host);
  const device::DeviceCounters c = ctx.counters_snapshot();
  const std::vector<TraceEvent> events = trace().snapshot();
  EXPECT_NEAR(recompute_overlap_seconds(events), c.overlapped_seconds, 1e-9);
}

}  // namespace
}  // namespace fastsc::obs
