// perfbench: one workload of the fastsc end-to-end benchmark per process.
//
//   perfbench --workload <dblp-k50|sbm-k8|sbm-k8-4dev|service-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--backend <device|matlab>]
//
// Progress and check failures go to stderr.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, with the
// end-to-end metrics under --trace 0 and the per-layer metrics under
// --trace 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>

#include "bench.h"

namespace perfbench {

void Outcome::check(const std::string& failure, const std::string& where) {
  if (failure.empty()) return;
  static std::mutex mu;  // service client threads check concurrently
  std::lock_guard lock(mu);
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n", where.c_str(),
               failure.c_str());
}

void Spans::add(std::string name, Clock::time_point begin,
                Clock::time_point end, int tid) {
  const double ts = std::chrono::duration<double, std::micro>(begin - origin_).count();
  const double dur = std::chrono::duration<double, std::micro>(end - begin).count();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{std::move(name), ts, dur, tid});
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard lock(mu_);
  os << "{\"traceEvents\":[";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"tid\":%d}", s.ts_us,
                  s.dur_us, s.tid);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1," << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const usize mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lo + hi) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<usize>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<usize>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

usize host_threads() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<usize>(online) : 1;
}

}  // namespace perfbench

namespace {

// Taken before main() runs: setup_s counts from here.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

void print_result(const perfbench::Outcome& out) {
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      out.correct && finite ? "true" : "false",
      static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
      metrics.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dblp-k50|sbm-k8|"
               "sbm-k8-4dev|service-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--backend <device|matlab>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: buffers of 1 MiB and up are mapped and unmapped
  // with their lifetime, so peak_rss_mb follows the live working set rather
  // than how the allocator's dynamic threshold happened to drift.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--backend" && (value == "device" || value == "matlab")) {
        args.matlab_like = value == "matlab";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (args.trace_out.empty()) {
    args.trace_out = "perfbench-trace-" + args.workload + ".json";
  }
  try {
    perfbench::Outcome out;
    if (perfbench::is_graph_workload(args.workload)) {
      out = perfbench::run_graph_workload(args, kProcessStart);
    } else if (args.workload == "service-mixed") {
      out = perfbench::run_service_workload(args, kProcessStart);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  return 0;
}
