#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

namespace perfbench {
namespace {

using fastsc::core::SpectralResult;

constexpr real kOrthoTol = 1e-8;   // |v_i . v_j - delta_ij|
constexpr real kRangeSlack = 1e-12;

std::string fmt(const char* what, double value, double limit) {
  std::ostringstream os;
  os.precision(6);
  os << what << " " << value << " (limit " << limit << ")";
  return os.str();
}

/// The eigenvectors of S the result implies, one length-n vector per
/// eigenpair: embedding columns are D^-1/2 v normalized, so v = D^1/2 col.
std::vector<std::vector<real>> recover_vectors(const CheckedGraph& g,
                                               const SpectralResult& r) {
  const auto n = static_cast<usize>(r.n);
  const auto k = static_cast<usize>(r.k);
  std::vector<std::vector<real>> v(k, std::vector<real>(n));
  for (usize c = 0; c < k; ++c) {
    real norm2 = 0;
    for (usize i = 0; i < n; ++i) {
      const real x = g.sqrt_degree[i] * r.embedding[i * k + c];
      v[c][i] = x;
      norm2 += x * x;
    }
    const real inv = norm2 > 0 ? 1 / std::sqrt(norm2) : 0;
    for (real& x : v[c]) x *= inv;
  }
  return v;
}

/// y = D^-1/2 W D^-1/2 x over the input COO.
void apply_s(const CheckedGraph& g, const std::vector<real>& x,
             std::vector<real>& y) {
  const fastsc::sparse::Coo& w = g.w;
  std::fill(y.begin(), y.end(), real{0});
  for (usize e = 0; e < w.values.size(); ++e) {
    const auto i = static_cast<usize>(w.row_idx[e]);
    const auto j = static_cast<usize>(w.col_idx[e]);
    y[i] += w.values[e] * x[j] / (g.sqrt_degree[i] * g.sqrt_degree[j]);
  }
}

}  // namespace

CheckedGraph::CheckedGraph(const fastsc::sparse::Coo& graph)
    : w(graph), sqrt_degree(static_cast<usize>(graph.rows), 0) {
  for (usize e = 0; e < w.values.size(); ++e) {
    sqrt_degree[static_cast<usize>(w.row_idx[e])] += w.values[e];
  }
  for (real& d : sqrt_degree) d = std::sqrt(d);
}

std::string check_eigenpairs(const CheckedGraph& g, const SpectralResult& r,
                             real tol) {
  const auto n = static_cast<usize>(r.n);
  const auto k = static_cast<usize>(r.k);
  if (n != static_cast<usize>(g.w.rows) || k == 0 ||
      r.embedding.size() != n * k || r.eigenvalues.size() != k) {
    return "eigenpairs: result has the wrong shape";
  }
  if (!r.eig_converged) return "eigenpairs: eigensolver did not converge";
  for (usize i = 0; i < n; ++i) {
    if (!(g.sqrt_degree[i] > 0)) return "eigenpairs: input has a zero degree";
  }
  real top = -2;
  for (const real lambda : r.eigenvalues) {
    if (!(lambda >= -1 - kRangeSlack && lambda <= 1 + kRangeSlack)) {
      return fmt("eigenpairs: eigenvalue outside [-1, 1]:", lambda, 1);
    }
    top = std::max(top, lambda);
  }
  const std::vector<std::vector<real>> v = recover_vectors(g, r);
  std::vector<real> sv(n);
  for (usize c = 0; c < k; ++c) {
    apply_s(g, v[c], sv);
    real res2 = 0;
    for (usize i = 0; i < n; ++i) {
      const real d = sv[i] - r.eigenvalues[c] * v[c][i];
      res2 += d * d;
    }
    if (!(std::sqrt(res2) <= tol)) {
      return fmt("eigenpairs: residual ||Sv - lambda v|| =", std::sqrt(res2),
                 tol);
    }
  }
  for (usize a = 0; a < k; ++a) {
    for (usize b = a; b < k; ++b) {
      real dot = 0;
      for (usize i = 0; i < n; ++i) dot += v[a][i] * v[b][i];
      const real err = std::abs(dot - (a == b ? 1 : 0));
      if (!(err <= kOrthoTol)) {
        return fmt("eigenpairs: vectors not orthonormal, |v_a.v_b - d_ab| =",
                   err, kOrthoTol);
      }
    }
  }
  if (std::abs(top - 1) > tol) {
    return fmt("eigenpairs: largest eigenvalue misses 1 by", top - 1, tol);
  }
  return "";
}

std::string check_kmeans(const SpectralResult& r) {
  if (!r.kmeans_converged) return "kmeans: did not converge";
  const auto n = static_cast<usize>(r.n);
  const auto k = static_cast<usize>(r.k);
  if (r.labels.size() != n || r.embedding.size() != n * k) {
    return "kmeans: result has the wrong shape";
  }
  std::vector<real> mean(k * k, 0);
  std::vector<usize> count(k, 0);
  for (usize i = 0; i < n; ++i) {
    const index_t l = r.labels[i];
    if (l < 0 || static_cast<usize>(l) >= k) return "kmeans: label out of range";
    const auto c = static_cast<usize>(l);
    ++count[c];
    for (usize d = 0; d < k; ++d) mean[c * k + d] += r.embedding[i * k + d];
  }
  for (usize c = 0; c < k; ++c) {
    if (count[c] == 0) continue;
    for (usize d = 0; d < k; ++d) mean[c * k + d] /= static_cast<real>(count[c]);
  }
  for (usize i = 0; i < n; ++i) {
    const real* x = r.embedding.data() + i * k;
    const auto own = static_cast<usize>(r.labels[i]);
    real best = 0;
    real own_d = 0;
    bool first = true;
    for (usize c = 0; c < k; ++c) {
      if (count[c] == 0) continue;
      real d2 = 0;
      for (usize d = 0; d < k; ++d) {
        const real t = x[d] - mean[c * k + d];
        d2 += t * t;
      }
      if (c == own) own_d = d2;
      if (first || d2 < best) best = d2;
      first = false;
    }
    // Relative slack: the program forms distances as |x|^2 - 2x.m + |m|^2.
    if (own_d > best * (1 + 1e-9) + 1e-15) {
      return fmt("kmeans: row is nearer another mean than its own, excess",
                 own_d - best, best * 1e-9);
    }
  }
  return "";
}

std::string check_ari(const std::vector<index_t>& labels,
                      const std::vector<index_t>& truth, real min_ari) {
  if (labels.size() != truth.size() || labels.empty()) {
    return "ari: label vectors differ in length";
  }
  const auto na =
      static_cast<usize>(*std::max_element(labels.begin(), labels.end())) + 1;
  const auto nb =
      static_cast<usize>(*std::max_element(truth.begin(), truth.end())) + 1;
  std::vector<double> table(na * nb, 0), rows(na, 0), cols(nb, 0);
  for (usize i = 0; i < labels.size(); ++i) {
    const auto a = static_cast<usize>(labels[i]);
    const auto b = static_cast<usize>(truth[i]);
    table[a * nb + b] += 1;
    rows[a] += 1;
    cols[b] += 1;
  }
  const auto pairs = [](double x) { return x * (x - 1) / 2; };
  double sum_ij = 0, sum_a = 0, sum_b = 0;
  for (const double t : table) sum_ij += pairs(t);
  for (const double t : rows) sum_a += pairs(t);
  for (const double t : cols) sum_b += pairs(t);
  const double expected = sum_a * sum_b / pairs(static_cast<double>(labels.size()));
  const double max_index = (sum_a + sum_b) / 2;
  const double ari = max_index == expected
                         ? 1.0
                         : (sum_ij - expected) / (max_index - expected);
  if (!(ari >= min_ari)) return fmt("ari: adjusted Rand index", ari, min_ari);
  return "";
}

std::string check_same_labels(const std::vector<index_t>& a,
                              const std::vector<index_t>& b) {
  if (a.size() != b.size() ||
      (!a.empty() &&
       std::memcmp(a.data(), b.data(), a.size() * sizeof(index_t)) != 0)) {
    return "labels: not byte-identical to the reference job";
  }
  return "";
}

std::string check_cache_hit(const SpectralResult& hit,
                            const SpectralResult& filler) {
  if (!check_same_labels(hit.labels, filler.labels).empty() ||
      hit.eigenvalues.size() != filler.eigenvalues.size() ||
      (!hit.eigenvalues.empty() &&
       std::memcmp(hit.eigenvalues.data(), filler.eigenvalues.data(),
                   hit.eigenvalues.size() * sizeof(real)) != 0)) {
    return "cache hit: not byte-equal to the job that filled the entry";
  }
  return "";
}

std::string self_test(const CheckedGraph& g, const SpectralResult& good,
                      const std::vector<index_t>* truth, real min_ari,
                      real tol) {
  const auto n = static_cast<usize>(good.n);
  const auto k = static_cast<usize>(good.k);
  std::vector<std::string> missed;
  // `reason` must be a rejection naming `part`, the sub-check aimed at.
  const auto expect_reject = [&](const char* what, const std::string& reason,
                                 const char* part) {
    if (reason.find(part) == std::string::npos) missed.emplace_back(what);
  };

  // Eigenpairs: a shifted eigenvalue or a perturbed vector entry breaks the
  // residual, a duplicated pair the orthonormality, an out-of-range value
  // the spectrum bounds.
  {
    SpectralResult r = good;
    r.eigenvalues[k - 1] += 1e3 * tol;
    expect_reject("eigenpairs/shifted-eigenvalue", check_eigenpairs(g, r, tol),
                  "residual");
  }
  if (k >= 2) {
    SpectralResult r = good;
    for (usize i = 0; i < n; ++i) r.embedding[i * k + 1] = r.embedding[i * k];
    r.eigenvalues[1] = r.eigenvalues[0];
    expect_reject("eigenpairs/duplicated-pair", check_eigenpairs(g, r, tol),
                  "orthonormal");
  }
  {
    SpectralResult r = good;
    r.eigenvalues[0] = 1.5;
    expect_reject("eigenpairs/out-of-range", check_eigenpairs(g, r, tol),
                  "outside");
  }
  {
    SpectralResult r = good;
    r.embedding[0] += 0.5;
    expect_reject("eigenpairs/perturbed-vector", check_eigenpairs(g, r, tol),
                  "residual");
  }

  // k-means: move row 0 to the cluster whose first member lies farthest
  // from it.
  if (k >= 2) {
    SpectralResult r = good;
    const real* x = r.embedding.data();
    usize far_c = 0;
    real far_d = -1;
    for (usize c = 0; c < k; ++c) {
      for (usize i = 0; i < n; ++i) {
        if (static_cast<usize>(r.labels[i]) != c) continue;
        real d2 = 0;
        for (usize d = 0; d < k; ++d) {
          const real t = x[d] - x[i * k + d];
          d2 += t * t;
        }
        if (d2 > far_d) {
          far_d = d2;
          far_c = c;
        }
        break;
      }
    }
    r.labels[0] = static_cast<index_t>(far_c);
    expect_reject("kmeans/moved-row", check_kmeans(r), "nearer");
  }
  {
    SpectralResult r = good;
    r.kmeans_converged = false;
    expect_reject("kmeans/not-converged", check_kmeans(r), "converge");
  }

  // ARI: shuffled labels keep the cluster sizes but lose the partition.
  if (truth != nullptr) {
    std::vector<index_t> shuffled = good.labels;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(1));
    expect_reject("ari/shuffled-labels", check_ari(shuffled, *truth, min_ari),
                  "adjusted Rand");
  }

  // Byte identity: one label changed; one eigenvalue bit flipped.
  {
    std::vector<index_t> changed = good.labels;
    changed[n / 2] = (changed[n / 2] + 1) % static_cast<index_t>(k);
    expect_reject("labels/one-changed", check_same_labels(changed, good.labels),
                  "byte-identical");
  }
  {
    SpectralResult r = good;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.eigenvalues[0], sizeof bits);
    bits ^= 1;
    std::memcpy(&r.eigenvalues[0], &bits, sizeof bits);
    expect_reject("cache-hit/eigenvalue-bit", check_cache_hit(r, good),
                  "byte-equal");
  }

  // And the uncorrupted result must pass every check.
  std::string clean = check_eigenpairs(g, good, tol);
  if (clean.empty()) clean = check_kmeans(good);
  if (clean.empty() && truth != nullptr) clean = check_ari(good.labels, *truth, min_ari);
  if (!clean.empty()) return "self-test: the uncorrupted result fails: " + clean;
  if (missed.empty()) return "";
  std::string out = "self-test: corruption accepted by";
  for (const std::string& m : missed) out += " " + m;
  return out;
}

}  // namespace perfbench
