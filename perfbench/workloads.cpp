// The benchmark's workloads: three one-job-at-a-time graph workloads and a
// closed-loop service mix.  See README.md for why each exists and which
// layer metric should move which end-to-end metric.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "blas/hblas.h"
#include "checks.h"
#include "common/thread_pool.h"
#include "core/fingerprint.h"
#include "core/spectral.h"
#include "data/sbm.h"
#include "data/social.h"
#include "device/device.h"
#include "fastsc/service.h"
#include "graph/components.h"
#include "graph/laplacian.h"
#include "kmeans/kmeans.h"
#include "obs/trace.h"
#include "sparse/spmv.h"

namespace perfbench {
namespace {

namespace core = fastsc::core;
namespace data = fastsc::data;
namespace device = fastsc::device;
namespace sparse = fastsc::sparse;
using core::SpectralConfig;
using core::SpectralResult;

constexpr real kEigTol = 1e-8;       // SpectralConfig's default eig_tol
constexpr real kMinPlantedAri = 0.95;
constexpr real kMinWarmAri = 0.99;
constexpr std::int64_t kMinTimedJobs = 3;
constexpr int kMinTracedPairs = 2;

/// Every per-layer metric, in output order.  A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"lanczos.rci_s", "s"},          {"lanczos.restart_s", "s"},
    {"lanczos.ortho_s", "s"},        {"lanczos.matvecs", "count"},
    {"lanczos.restarts", "count"},   {"hblas.cgs2_pass_s", "s"},
    {"hblas.restart_gemm_s", "s"},   {"spmv.call_s", "s"},
    {"spmv.pipeline_s", "s"},        {"graph.upload_s", "s"},
    {"graph.normalize_s", "s"},      {"device.h2d_mb", "MB"},
    {"device.d2h_mb", "MB"},         {"device.d2d_mb", "MB"},
    {"device.transfers", "count"},   {"device.kernel_launches", "count"},
    {"device.kernel_s", "s"},        {"device.overlapped_s", "s"},
    {"device.peak_mb", "MB"},        {"kmeans.stage_s", "s"},
    {"kmeans.device_s", "s"},        {"kmeans.iterations", "count"},
    {"core.unstaged_s", "s"},        {"pool.dispatches", "count"},
    {"sdc.checks", "count"},         {"service.queue_ms_p50", "ms"},
    {"service.cold_ms_p50", "ms"},   {"service.warm_ms_p50", "ms"},
    {"service.hit_ms_p50", "ms"},    {"service.job_p90_s", "s"},
    {"service.cache_hits", "count"}, {"service.warm_starts", "count"},
    {"service.warm_matvecs", "count"}, {"service.cold_matvecs", "count"},
    {"trace.overhead_s", "s"},
};

using LayerValues = std::map<std::string, double>;

void emit_layers(Outcome& out, const LayerValues& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    out.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

constexpr double kMB = 1e6;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

/// A generated graph restricted to its largest connected component, with
/// the planted community of every kept vertex.
struct Input {
  sparse::Coo w;
  std::vector<index_t> truth;
};

Input largest_component(const data::SbmGraph& g) {
  std::vector<index_t> old_of_new;
  Input in;
  in.w = fastsc::graph::largest_component(g.w, old_of_new);
  in.truth.reserve(old_of_new.size());
  for (const index_t v : old_of_new) {
    in.truth.push_back(g.labels[static_cast<usize>(v)]);
  }
  return in;
}

/// The same graph with its vertices renumbered by a permutation drawn from
/// `seed`.  The DBLP-like generator's skewed community sizes make a solve's
/// cost swing with the generator seed, so DBLP-like inputs are drawn at a
/// fixed generator seed and the run's seed picks the vertex order.
Input relabeled(Input in, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<usize>(in.w.rows));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
  for (index_t& v : in.w.row_idx) v = perm[static_cast<usize>(v)];
  for (index_t& v : in.w.col_idx) v = perm[static_cast<usize>(v)];
  std::vector<index_t> truth(in.truth.size());
  for (usize v = 0; v < truth.size(); ++v) {
    truth[static_cast<usize>(perm[v])] = in.truth[v];
  }
  in.truth = std::move(truth);
  return in;
}

std::uint64_t pool_dispatches(device::DeviceContext& ctx) {
  return ctx.pool().jobs_dispatched() +
         fastsc::default_thread_pool().jobs_dispatched();
}

/// One spectral_cluster_graph call and its wall time.
struct Job {
  SpectralResult result;
  double wall_s = 0;
  std::uint64_t dispatches = 0;
};

Job run_job(const sparse::Coo& w, const SpectralConfig& cfg,
            device::DeviceContext& ctx) {
  Job job;
  const std::uint64_t d0 = pool_dispatches(ctx);
  const auto t0 = Clock::now();
  job.result = core::spectral_cluster_graph(w, cfg, &ctx);
  job.wall_s = seconds_since(t0);
  job.dispatches = pool_dispatches(ctx) - d0;
  return job;
}

/// The checks every solved result goes through.
void check_solved(Outcome& out, const CheckedGraph& g, const SpectralResult& r,
                  const std::string& where) {
  out.check(check_eigenpairs(g, r, kEigTol), where);
  out.check(check_kmeans(r), where);
  if (r.degradation.degraded) {
    out.check("job took the degradation ladder (" +
                  r.degradation.events.front().action + ")",
              where);
  }
}

/// Per-job samples of each per-layer metric, reduced to medians at the end.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Record the per-layer numbers a solved job carries (library counters).
void add_job_layers(LayerSamples& s, const SpectralResult& r, double wall_s,
                    std::uint64_t dispatches) {
  const device::DeviceCounters& c = r.device_counters;
  s["lanczos.rci_s"].push_back(r.eig_stats.rci_seconds);
  s["lanczos.restart_s"].push_back(r.eig_stats.restart_seconds);
  s["lanczos.ortho_s"].push_back(r.eig_stats.ortho_seconds);
  s["lanczos.matvecs"].push_back(static_cast<double>(r.eig_stats.matvec_count));
  s["lanczos.restarts"].push_back(static_cast<double>(r.eig_stats.restart_count));
  s["spmv.pipeline_s"].push_back(r.spmv_seconds);
  s["kmeans.stage_s"].push_back(r.clock.seconds(core::kStageKmeans));
  s["kmeans.iterations"].push_back(static_cast<double>(r.kmeans_iterations));
  s["core.unstaged_s"].push_back(wall_s - r.clock.total_seconds());
  s["pool.dispatches"].push_back(static_cast<double>(dispatches));
  s["sdc.checks"].push_back(static_cast<double>(r.integrity.checks));
  s["device.h2d_mb"].push_back(static_cast<double>(c.bytes_h2d) / kMB);
  s["device.d2h_mb"].push_back(static_cast<double>(c.bytes_d2h) / kMB);
  s["device.d2d_mb"].push_back(static_cast<double>(c.bytes_d2d) / kMB);
  s["device.transfers"].push_back(
      static_cast<double>(c.transfers_h2d + c.transfers_d2h + c.transfers_d2d));
  s["device.kernel_launches"].push_back(static_cast<double>(c.kernel_launches));
  s["device.kernel_s"].push_back(c.kernel_seconds);
  s["device.overlapped_s"].push_back(c.overlapped_seconds);
  s["device.peak_mb"].push_back(static_cast<double>(c.peak_bytes) / kMB);
}

void take_medians(LayerValues& layer, const LayerSamples& samples) {
  for (const auto& [name, values] : samples) layer[name] = median(values);
}

/// Run `fn` `reps` times, each call one span, and return the median seconds.
template <class Fn>
double median_seconds(Spans& spans, const char* name, int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    spans.add(name, a, b, 0);
    seconds.push_back(seconds_between(a, b));
  }
  return median(std::move(seconds));
}

/// Time the layer entry points the pipeline calls, at one job's shape:
/// graph upload and Algorithm 2 on the device, one balanced device SpMV on
/// the normalized matrix, one CGS2 pass and one thick-restart rotation over
/// an n x ncv basis, and device k-means on the job's embedding.
void measure_layers(LayerValues& layer, Spans& spans,
                    device::DeviceContext& ctx, const sparse::Coo& w,
                    const SpectralConfig& cfg, const SpectralResult& solved) {
  const index_t n = w.rows;
  const index_t k = cfg.num_clusters;
  // SpectralConfig::ncv = 0 selects m = max(2k + 1, 20) capped at n.
  const index_t ncv =
      cfg.ncv > 0 ? cfg.ncv : std::min(n, std::max<index_t>(2 * k + 1, 20));
  const auto un = static_cast<usize>(n);
  std::mt19937_64 rng(cfg.seed);
  const auto uniform = [&rng] {
    return static_cast<real>(rng() >> 11) * 0x1.0p-53 - 0.5;
  };

  // Algorithm 2 sorts and scales the device COO in place: upload anew each
  // time.
  std::vector<double> upload, normalize;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    sparse::DeviceCoo dev(ctx, w);
    const auto t1 = Clock::now();
    device::DeviceBuffer<real> isd;
    const sparse::DeviceCsr normalized =
        fastsc::graph::sym_normalized_device(ctx, dev, isd);
    const auto t2 = Clock::now();
    spans.add("graph.upload", t0, t1, 0);
    spans.add("graph.normalize", t1, t2, 0);
    upload.push_back(seconds_between(t0, t1));
    normalize.push_back(seconds_between(t1, t2));
    if (rep > 0) continue;
    std::vector<real> hx(un);
    for (real& e : hx) e = uniform();
    const device::DeviceBuffer<real> x(ctx, std::span<const real>(hx));
    device::DeviceBuffer<real> y(ctx, un);
    layer["spmv.call_s"] = median_seconds(spans, "spmv.call", 30, [&] {
      sparse::device_csrmv_balanced(ctx, normalized, x.data(), y.data());
    });
  }
  layer["graph.upload_s"] = median(std::move(upload));
  layer["graph.normalize_s"] = median(std::move(normalize));

  // Basis V (ncv x n, one Lanczos vector per row) as the RCI loop keeps it.
  std::vector<real> v(static_cast<usize>(ncv) * un);
  for (real& e : v) e = uniform();
  std::vector<real> wv(un), c(static_cast<usize>(ncv));
  for (real& e : wv) e = uniform();
  layer["hblas.cgs2_pass_s"] = median_seconds(spans, "hblas.cgs2_pass", 20, [&] {
    fastsc::hblas::gemv_par(ncv, n, 1.0, v.data(), n, wv.data(), 0.0, c.data());
    fastsc::hblas::gemv_t_par(ncv, n, -1.0, v.data(), n, c.data(), 1.0,
                              wv.data());
  });
  // Thick restart keeps l = nev + min(nev, (m - nev) / 2) rotated vectors.
  index_t l = k + std::min(k, (ncv - k) / 2);
  l = std::max(std::min(l, ncv - 2), std::min(k, ncv - 2));
  std::vector<real> g(static_cast<usize>(l) * static_cast<usize>(ncv));
  for (real& e : g) e = uniform();
  std::vector<real> vnew(static_cast<usize>(l) * un);
  layer["hblas.restart_gemm_s"] = median_seconds(spans, "hblas.restart_gemm", 5, [&] {
    fastsc::hblas::gemm(l, n, ncv, 1.0, g.data(), ncv, v.data(), n, 0.0,
                        vnew.data(), n);
  });

  fastsc::kmeans::KmeansConfig kc;
  kc.k = k;
  kc.max_iters = cfg.kmeans_max_iters;
  kc.seeding = cfg.seeding;
  kc.seed = cfg.seed;
  kc.async_pipeline = cfg.async_pipeline;
  layer["kmeans.device_s"] = median_seconds(spans, "kmeans.device", 3, [&] {
    (void)fastsc::kmeans::kmeans_device(ctx, solved.embedding.data(), n, k, kc);
  });
}

// ---- graph workloads --------------------------------------------------------

struct GraphWorkload {
  const char* name;
  index_t k;
  index_t ncv;          ///< 0 = the library default
  index_t devices;
  index_t ref_devices;  ///< device count of the cross-device reference; 0 = none
  bool sbm;             ///< planted SBM (ARI-checked) rather than DBLP-like
};

constexpr std::uint64_t kDblpGraphSeed = 42;

constexpr GraphWorkload kGraphWorkloads[] = {
    {"dblp-k50", 50, 101, 1, 0, false},
    {"sbm-k8", 8, 0, 1, 4, true},
    {"sbm-k8-4dev", 8, 0, 4, 1, true},
};

const GraphWorkload* find_graph_workload(const std::string& name) {
  for (const GraphWorkload& wl : kGraphWorkloads) {
    if (name == wl.name) return &wl;
  }
  return nullptr;
}

Input make_graph_input(const GraphWorkload& wl, std::uint64_t seed) {
  if (wl.sbm) {
    data::SbmParams p;
    // The pipeline runs one k-means++ start, so a weak block structure
    // lets some seeds end in a local optimum (ARI ~0.83).  At 0.004/0.0004
    // that was 4 of 100 seeds; at 0.0055/0.0002, none of 500.
    p.block_sizes = data::equal_blocks(60000, 8);
    p.p_in = 0.0055;
    p.p_out = 0.0002;
    p.seed = seed;
    return largest_component(data::make_sbm(p));
  }
  return relabeled(largest_component(data::make_social_graph(
                       data::dblp_like_params(12000, 100, kDblpGraphSeed))),
                   seed);
}

}  // namespace

bool is_graph_workload(const std::string& name) {
  return find_graph_workload(name) != nullptr;
}

Outcome run_graph_workload(const Args& args, Clock::time_point process_start) {
  const GraphWorkload& wl = *find_graph_workload(args.workload);
  Outcome out;
  device::DeviceContext ctx(host_threads());
  const Input in = make_graph_input(wl, args.seed);
  const CheckedGraph graph(in.w);
  std::fprintf(stderr, "perfbench: %s n=%lld nnz=%lld seed=%llu\n", wl.name,
               static_cast<long long>(in.w.rows),
               static_cast<long long>(in.w.nnz()),
               static_cast<unsigned long long>(args.seed));

  SpectralConfig cfg;
  cfg.num_clusters = wl.k;
  cfg.ncv = wl.ncv;
  cfg.num_devices = wl.devices;
  cfg.eig_tol = kEigTol;
  if (args.matlab_like) cfg.backend = core::Backend::kMatlabLike;

  const auto check_job = [&](const SpectralResult& r,
                             const std::vector<index_t>* same_as,
                             const std::string& where) {
    check_solved(out, graph, r, where);
    if (wl.sbm) out.check(check_ari(r.labels, in.truth, kMinPlantedAri), where);
    if (same_as != nullptr) out.check(check_same_labels(r.labels, *same_as), where);
  };

  // The warm-up job's labels are the reference every later job must equal
  // byte for byte, at this device count and at the other one.
  const Job warm = run_job(in.w, cfg, ctx);
  check_job(warm.result, nullptr, "warm-up job");
  out.check(self_test(graph, warm.result, wl.sbm ? &in.truth : nullptr,
                      kMinPlantedAri, kEigTol),
            "self-test");
  if (wl.ref_devices > 0) {
    SpectralConfig rc = cfg;
    rc.num_devices = wl.ref_devices;
    const Job ref = run_job(in.w, rc, ctx);
    check_job(ref.result, &warm.result.labels,
              std::to_string(wl.ref_devices) + "-device reference job");
  }
  const double setup_s = seconds_since(process_start);

  // Only numbers are kept per job: a run holds one result at a time.
  Spans spans(process_start);
  std::vector<double> job_s, eig_s, link_s, traced_s;
  LayerSamples traced_layers;
  const auto run_timed = [&](bool with_trace) {
    ++out.attempted;
    SpectralConfig jc = cfg;
    jc.trace = with_trace;
    try {
      SpanScope span(with_trace ? &spans : nullptr, "job");
      const Job j = run_job(in.w, jc, ctx);
      const double eig = j.result.clock.seconds(core::kStageEigensolver);
      std::fprintf(stderr, "perfbench: job %lld%s %.4f s (eigensolver %.4f s)\n",
                   static_cast<long long>(out.attempted), with_trace ? " traced" : "",
                   j.wall_s, eig);
      check_job(j.result, &warm.result.labels, "timed job");
      if (with_trace) {
        traced_s.push_back(j.wall_s);
        add_job_layers(traced_layers, j.result, j.wall_s, j.dispatches);
      } else {
        job_s.push_back(j.wall_s);
        eig_s.push_back(eig);
        link_s.push_back(j.result.device_counters.modeled_transfer_seconds);
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
    }
    if (with_trace) fastsc::obs::trace().clear();
  };

  const auto t_start = Clock::now();
  if (!args.trace) {
    while (out.attempted < kMinTimedJobs ||
           seconds_since(t_start) < args.seconds) {
      run_timed(false);
    }
    double busy_s = 0;
    for (const double t : job_s) busy_s += t;
    out.add("setup_s", setup_s, "s");
    out.add("job_s", median(job_s), "s");
    out.add("jobs_per_s",
            busy_s > 0 ? static_cast<double>(job_s.size()) / busy_s : 0, "1/s");
    out.add("eigensolver_s", median(eig_s), "s");
    out.add("link_modeled_s", median(link_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: untraced and traced jobs alternate (the difference of their
  // medians is the tracing overhead), then the layer entry points are timed
  // at this workload's shape.
  int pairs = 0;
  while (pairs < kMinTracedPairs || seconds_since(t_start) < args.seconds) {
    run_timed(false);
    run_timed(true);
    ++pairs;
  }
  LayerValues layer;
  take_medians(layer, traced_layers);
  measure_layers(layer, spans, ctx, in.w, cfg, warm.result);
  layer["trace.overhead_s"] = median(traced_s) - median(job_s);
  emit_layers(out, layer);
  if (!spans.write_json(args.trace_out)) {
    out.check("cannot write " + args.trace_out, "trace");
  }
  return out;
}

// ---- service-mixed ------------------------------------------------------------

namespace {

constexpr int kClients = 2;
constexpr int kCyclesPerClient = 5;
constexpr usize kServiceExecutors = 2;

enum class Kind { kCold, kHit, kWarm };
const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCold: return "cold";
    case Kind::kHit: return "hit";
    case Kind::kWarm: return "warm";
  }
  return "?";
}

/// One job of a client's cycle, fixed in setup.
struct Slot {
  Kind kind = Kind::kCold;
  sparse::Coo w;
  SpectralConfig cfg;
  std::uint64_t warm_hint = 0;
  int filled_by = -1;  ///< hits: index of the slot whose solve filled the entry
  std::unique_ptr<CheckedGraph> checked;  ///< cold and warm slots
  std::vector<index_t> reference;  ///< warm: labels of a cold solve
};

/// Reweight 1% of the undirected edges by a factor in [0.5, 1.5] (both
/// stored directions alike): a delta update that keeps n and connectivity.
sparse::Coo delta_update(const sparse::Coo& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<usize> upper;
  for (usize e = 0; e < w.values.size(); ++e) {
    if (w.row_idx[e] < w.col_idx[e]) upper.push_back(e);
  }
  std::unordered_map<std::uint64_t, real> factor;
  const usize changes = std::max<usize>(1, upper.size() / 100);
  const auto key = [](index_t a, index_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
           static_cast<std::uint64_t>(std::max(a, b));
  };
  while (factor.size() < changes) {
    const usize e = upper[rng() % upper.size()];
    factor[key(w.row_idx[e], w.col_idx[e])] =
        0.5 + static_cast<real>(rng() >> 11) * 0x1.0p-53;
  }
  sparse::Coo out = w;
  for (usize e = 0; e < out.values.size(); ++e) {
    const auto it = factor.find(key(out.row_idx[e], out.col_idx[e]));
    if (it != factor.end()) out.values[e] *= it->second;
  }
  return out;
}

/// A client's cycle: a cold FB-like solve, its identical resubmission (a
/// cache hit), three chained 1% delta updates warm-started from the
/// previous graph, and a cold DBLP-like solve.  Every cold solve gets its
/// own config seed, so the cache never holds a same-config donor for it:
/// hits and warm starts follow from each client's own order alone.
///
/// Warm-started solves return eigenpairs far outside the solver tolerance
/// (every one of them: residuals near 1e-3 against eig_tol 1e-8), so they
/// count as failed jobs.  That share stays exact only on inputs that do not
/// change with the seed: the FB-like chain is fixed per client and cycle,
/// and the seed relabels the DBLP-like graphs.
std::vector<Slot> make_client(std::uint64_t seed, int client) {
  std::vector<Slot> slots;
  for (int cycle = 0; cycle < kCyclesPerClient; ++cycle) {
    const std::uint64_t s = mix(static_cast<std::uint64_t>(client) + 1,
                                static_cast<std::uint64_t>(cycle) + 1);
    const int base = static_cast<int>(slots.size());
    Slot fb;
    fb.w = largest_component(data::make_social_graph(
                                 data::fb_like_params(4039, 10, s)))
               .w;
    fb.cfg.num_clusters = 10;
    fb.cfg.eig_tol = kEigTol;
    fb.cfg.seed = mix(s, 1);
    Slot hit;
    hit.kind = Kind::kHit;
    hit.w = fb.w;
    hit.cfg = fb.cfg;
    hit.filled_by = base;
    slots.push_back(std::move(fb));
    slots.push_back(std::move(hit));
    for (int step = 0; step < 3; ++step) {
      const Slot& prev = slots.back();
      Slot warm;
      warm.kind = Kind::kWarm;
      warm.w = delta_update(prev.w, mix(s, 10 + static_cast<std::uint64_t>(step)));
      warm.cfg = slots[static_cast<usize>(base)].cfg;
      warm.warm_hint = core::graph_fingerprint(prev.w);
      slots.push_back(std::move(warm));
    }
    Slot dblp;
    dblp.w = relabeled(largest_component(data::make_social_graph(
                           data::dblp_like_params(4000, 20, s))),
                       mix(seed, s))
                 .w;
    dblp.cfg.num_clusters = 10;
    dblp.cfg.eig_tol = kEigTol;
    dblp.cfg.seed = mix(s, 2);
    slots.push_back(std::move(dblp));
  }
  for (Slot& slot : slots) {
    if (slot.kind != Kind::kHit) slot.checked = std::make_unique<CheckedGraph>(slot.w);
  }
  return slots;
}

/// Accumulate the counters the service metrics read (peak: the maximum).
void add_counters(device::DeviceCounters& sum, const device::DeviceCounters& c) {
  sum.bytes_h2d += c.bytes_h2d;
  sum.bytes_d2h += c.bytes_d2h;
  sum.bytes_d2d += c.bytes_d2d;
  sum.transfers_h2d += c.transfers_h2d;
  sum.transfers_d2h += c.transfers_d2h;
  sum.transfers_d2d += c.transfers_d2d;
  sum.kernel_launches += c.kernel_launches;
  sum.kernel_seconds += c.kernel_seconds;
  sum.overlapped_seconds += c.overlapped_seconds;
  sum.modeled_transfer_seconds += c.modeled_transfer_seconds;
  sum.peak_bytes = std::max(sum.peak_bytes, c.peak_bytes);
}

struct Served {
  fastsc::JobResult result;
  double latency_s = 0;  ///< submit -> labels
};

/// One round: a fresh Service (empty cache) over the shared context and
/// the two clients, each running its cycles as a closed loop.
struct Round {
  std::vector<std::vector<Served>> served;  ///< [client][slot]
  double wall_s = 0;
  device::DeviceCounters counters;  ///< context delta over the round
  std::uint64_t dispatches = 0;
};

Round run_round(const std::vector<std::vector<Slot>>& clients,
                device::DeviceContext& ctx, Spans* spans) {
  Round round;
  round.served.resize(clients.size());
  fastsc::ServiceConfig sc;
  sc.workers = kServiceExecutors;
  const device::DeviceCounters before = ctx.counters_snapshot();
  const std::uint64_t d0 = pool_dispatches(ctx);
  const auto t0 = Clock::now();
  {
    fastsc::Service service(sc, &ctx);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(clients.size());
    for (usize c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          for (const Slot& slot : clients[c]) {
            fastsc::Job job;
            job.graph = slot.w;
            job.config = slot.cfg;
            job.config.trace = spans != nullptr;
            job.warm_hint = slot.warm_hint;
            SpanScope span(spans, std::string("job:") + kind_name(slot.kind),
                           static_cast<int>(c) + 1);
            const auto a = Clock::now();
            const fastsc::Service::Submitted sub = service.submit(std::move(job));
            Served s;
            s.result = service.wait(sub.id);
            s.latency_s = seconds_since(a);
            round.served[c].push_back(std::move(s));
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    service.shutdown(/*drain=*/true);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  round.wall_s = seconds_since(t0);
  round.counters = device::counters_delta(ctx.counters_snapshot(), before);
  round.dispatches = pool_dispatches(ctx) - d0;
  return round;
}

/// Check one round's results; `first` (null for the first round) holds the
/// labels every later round must repeat.  Returns the failed job count: jobs
/// that did not complete, and warm starts whose eigenpairs or labels miss
/// (see make_client).  Every other failed check makes the run incorrect.
std::int64_t check_round(Outcome& out, const std::vector<std::vector<Slot>>& clients,
                         const Round& round, const Round* first) {
  std::int64_t failed = 0;
  std::int64_t warm_failed = 0;
  std::string warm_example;
  for (usize c = 0; c < clients.size(); ++c) {
    for (usize i = 0; i < clients[c].size(); ++i) {
      const Slot& slot = clients[c][i];
      const fastsc::JobResult& r = round.served[c][i].result;
      const std::string where = "client " + std::to_string(c) + " job " +
                                std::to_string(i) + " (" + kind_name(slot.kind) + ")";
      if (r.status != fastsc::JobStatus::kCompleted) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s ended %s: %s\n", where.c_str(),
                     fastsc::job_status_name(r.status), r.error.c_str());
        continue;
      }
      if (r.cache_hit != (slot.kind == Kind::kHit) ||
          r.warm_started != (slot.kind == Kind::kWarm)) {
        out.check(std::string("served as ") +
                      (r.cache_hit ? "hit" : r.warm_started ? "warm" : "cold"),
                  where);
        continue;
      }
      if (slot.kind == Kind::kHit) {
        out.check(check_cache_hit(
                      r.spectral,
                      round.served[c][static_cast<usize>(slot.filled_by)].result.spectral),
                  where);
      } else if (slot.kind == Kind::kCold) {
        check_solved(out, *slot.checked, r.spectral, where);
      } else {
        std::string miss = check_eigenpairs(*slot.checked, r.spectral, kEigTol);
        if (miss.empty()) {
          miss = check_ari(r.spectral.labels, slot.reference, kMinWarmAri);
        }
        out.check(check_kmeans(r.spectral), where);
        if (!miss.empty()) {
          ++failed;
          if (warm_failed++ == 0) warm_example = where + ": " + miss;
        }
      }
      if (first != nullptr) {
        out.check(check_same_labels(r.spectral.labels,
                                    first->served[c][i].result.spectral.labels),
                  where + " vs the first round");
      }
    }
  }
  if (warm_failed > 0) {
    std::fprintf(stderr, "perfbench: %lld warm-started jobs failed, first: %s\n",
                 static_cast<long long>(warm_failed), warm_example.c_str());
  }
  return failed;
}

}  // namespace

Outcome run_service_workload(const Args& args, Clock::time_point process_start) {
  Outcome out;
  device::DeviceContext ctx(host_threads());
  std::vector<std::vector<Slot>> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(make_client(args.seed, c));

  // Cold reference solve of every delta graph (the warm-start ARI check),
  // then a warm-up round whose labels every timed round must repeat.
  for (std::vector<Slot>& slots : clients) {
    for (Slot& slot : slots) {
      if (slot.kind != Kind::kWarm) continue;
      const Job ref = run_job(slot.w, slot.cfg, ctx);
      check_solved(out, *slot.checked, ref.result, "warm-start reference");
      slot.reference = ref.result.labels;
    }
  }
  const Round warm_up = run_round(clients, ctx, nullptr);
  for (const auto& served : warm_up.served) {
    for (const Served& s : served) {
      if (s.result.status != fastsc::JobStatus::kCompleted) {
        out.check("a job did not complete", "warm-up round");
      }
    }
  }
  (void)check_round(out, clients, warm_up, nullptr);
  {
    const auto& first = clients[0][0];
    const SpectralResult& r = warm_up.served[0][0].result.spectral;
    out.check(self_test(*first.checked, r, nullptr, kMinPlantedAri, kEigTol),
              "self-test");
  }
  const double setup_s = seconds_since(process_start);

  // What the metrics need from a set of rounds; each round is folded in and
  // dropped, so a run holds only the warm-up round's results.
  struct Samples {
    std::vector<double> latency, eig, queue_ms;
    std::map<Kind, std::vector<double>> latency_ms_by_kind, matvecs_by_kind;
    LayerSamples layers;  ///< solved jobs
    double wall_s = 0;
    std::int64_t rounds = 0, completed = 0, hits = 0, warm = 0;
    device::DeviceCounters counters;
    std::uint64_t dispatches = 0;
    std::uint64_t per_job_h2d = 0;  ///< sum of the jobs' own bytes_h2d
  };
  const auto fold = [&clients](Samples& s, const Round& round) {
    ++s.rounds;
    s.wall_s += round.wall_s;
    s.dispatches += round.dispatches;
    add_counters(s.counters, round.counters);
    for (usize cl = 0; cl < clients.size(); ++cl) {
      for (usize i = 0; i < clients[cl].size(); ++i) {
        const Served& sv = round.served[cl][i];
        if (sv.result.status != fastsc::JobStatus::kCompleted) continue;
        const Kind kind = clients[cl][i].kind;
        const SpectralResult& r = sv.result.spectral;
        ++s.completed;
        s.hits += sv.result.cache_hit ? 1 : 0;
        s.warm += sv.result.warm_started ? 1 : 0;
        s.latency.push_back(sv.latency_s);
        s.queue_ms.push_back(sv.result.queue_ms);
        s.latency_ms_by_kind[kind].push_back(sv.latency_s * 1e3);
        s.per_job_h2d += r.device_counters.bytes_h2d;
        if (kind == Kind::kHit) continue;
        s.eig.push_back(r.clock.seconds(core::kStageEigensolver));
        s.matvecs_by_kind[kind].push_back(static_cast<double>(r.eig_stats.matvec_count));
        add_job_layers(s.layers, r, sv.result.solve_ms / 1e3, 0);
      }
    }
  };

  Spans spans(process_start);
  Samples plain, traced;
  const auto run_timed = [&](bool with_trace) {
    const Round r = run_round(clients, ctx, with_trace ? &spans : nullptr);
    for (const auto& served : r.served) {
      out.attempted += static_cast<std::int64_t>(served.size());
    }
    out.failed += check_round(out, clients, r, &warm_up);
    if (with_trace) fastsc::obs::trace().clear();
    fold(with_trace ? traced : plain, r);
  };

  const auto t_start = Clock::now();
  if (!args.trace) {
    while (plain.rounds == 0 || seconds_since(t_start) < args.seconds) {
      run_timed(false);
    }
    const Samples& s = plain;
    std::fprintf(stderr,
                 "perfbench: %lld jobs in %lld rounds; the jobs' own bytes_h2d "
                 "sum to %.1f MB against the context's %.1f MB\n",
                 static_cast<long long>(s.completed), static_cast<long long>(s.rounds),
                 static_cast<double>(s.per_job_h2d) / kMB,
                 static_cast<double>(s.counters.bytes_h2d) / kMB);
    const double jobs = std::max<double>(1, static_cast<double>(s.completed));
    out.add("setup_s", setup_s, "s");
    out.add("job_s", median(s.latency), "s");
    out.add("jobs_per_s",
            s.wall_s > 0 ? static_cast<double>(s.completed) / s.wall_s : 0, "1/s");
    out.add("eigensolver_s", median(s.eig), "s");
    out.add("link_modeled_s", s.counters.modeled_transfer_seconds / jobs, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  int pairs = 0;
  while (pairs < kMinTracedPairs || seconds_since(t_start) < args.seconds) {
    run_timed(false);
    run_timed(true);
    ++pairs;
  }
  const Samples& t = traced;
  LayerValues layer;
  take_medians(layer, t.layers);
  // Concurrent jobs share the context and its pools, so per-job deltas
  // overlap: device traffic and dispatches are context totals per job.
  const double jobs = std::max<double>(1, static_cast<double>(t.completed));
  layer["device.h2d_mb"] = static_cast<double>(t.counters.bytes_h2d) / kMB / jobs;
  layer["device.d2h_mb"] = static_cast<double>(t.counters.bytes_d2h) / kMB / jobs;
  layer["device.d2d_mb"] = static_cast<double>(t.counters.bytes_d2d) / kMB / jobs;
  layer["device.transfers"] =
      static_cast<double>(t.counters.transfers_h2d + t.counters.transfers_d2h +
                          t.counters.transfers_d2d) /
      jobs;
  layer["device.kernel_launches"] = static_cast<double>(t.counters.kernel_launches) / jobs;
  layer["device.kernel_s"] = t.counters.kernel_seconds / jobs;
  layer["device.overlapped_s"] = t.counters.overlapped_seconds / jobs;
  layer["device.peak_mb"] = static_cast<double>(t.counters.peak_bytes) / kMB;
  layer["pool.dispatches"] = static_cast<double>(t.dispatches) / jobs;
  const auto kind_median = [](const std::map<Kind, std::vector<double>>& m,
                              Kind k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : median(it->second);
  };
  layer["service.queue_ms_p50"] = median(t.queue_ms);
  layer["service.cold_ms_p50"] = kind_median(t.latency_ms_by_kind, Kind::kCold);
  layer["service.warm_ms_p50"] = kind_median(t.latency_ms_by_kind, Kind::kWarm);
  layer["service.hit_ms_p50"] = kind_median(t.latency_ms_by_kind, Kind::kHit);
  layer["service.job_p90_s"] = percentile(t.latency, 0.9);
  layer["service.cache_hits"] =
      static_cast<double>(t.hits) / static_cast<double>(t.rounds);
  layer["service.warm_starts"] =
      static_cast<double>(t.warm) / static_cast<double>(t.rounds);
  layer["service.warm_matvecs"] = kind_median(t.matvecs_by_kind, Kind::kWarm);
  layer["service.cold_matvecs"] = kind_median(t.matvecs_by_kind, Kind::kCold);
  layer["trace.overhead_s"] = median(t.latency) - median(plain.latency);
  const Slot& shape = clients[0][0];
  measure_layers(layer, spans, ctx, shape.w, shape.cfg,
                 warm_up.served[0][0].result.spectral);
  emit_layers(out, layer);
  if (!spans.write_json(args.trace_out)) {
    out.check("cannot write " + args.trace_out, "trace");
  }
  return out;
}

}  // namespace perfbench
