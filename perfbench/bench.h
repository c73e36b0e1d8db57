// Shared declarations of the fastsc end-to-end benchmark (perfbench).
//
// One process runs one workload: it generates the workload's inputs from
// --seed, builds the context (and service), runs a warm-up job, then runs
// whole jobs through the public API (core::spectral_cluster_graph,
// fastsc::Service) for --seconds, checks every output against checks it
// computes itself (checks.cpp), and prints one JSON result line.  With
// --trace 1 the same process instead measures the per-layer metrics and
// writes the benchmark's own spans as a Chrome-trace JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using fastsc::index_t;
using fastsc::real;
using fastsc::usize;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// The command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace JSON written by --trace 1
  /// --backend matlab: run the graph workloads on the serial Matlab-like
  /// backend (the README's single-threaded reference figure).
  bool matlab_like = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run reports: the last stdout line is printed from it.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  /// Record a failed output check (the run stays whole; correct = false).
  /// Thread-safe.
  void check(const std::string& failure, const std::string& where);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// The benchmark's own spans, kept in memory and written as Chrome-trace
/// JSON at the end of a traced run.  A null recorder records nothing.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  void add(std::string name, Clock::time_point begin, Clock::time_point end,
           int tid);
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double ts_us = 0;
    double dur_us = 0;
    int tid = 0;
  };
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times its scope as one span on `spans` (when non-null).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, int tid = 0)
      : spans_(spans), name_(std::move(name)), tid_(tid),
        begin_(Clock::now()) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->add(name_, begin_, Clock::now(), tid_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  std::string name_;
  int tid_;
  Clock::time_point begin_;
};

/// Median of the samples (0 for none).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile q in (0, 1] (0 for none).
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();
/// Worker count of the benchmark's DeviceContext: one per online CPU.
[[nodiscard]] usize host_threads();

/// Workload runners (workloads.cpp).  `process_start` is the process's
/// first timestamp: setup_s runs from there to the first timed job.
[[nodiscard]] bool is_graph_workload(const std::string& name);
[[nodiscard]] Outcome run_graph_workload(const Args& args,
                                         Clock::time_point process_start);
[[nodiscard]] Outcome run_service_workload(const Args& args,
                                           Clock::time_point process_start);

}  // namespace perfbench
