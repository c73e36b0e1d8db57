// Output checks of the benchmark, computed apart from the program: from the
// input COO the job was given and the result it returned, with the
// benchmark's own loops (no fastsc kernel is called).  Each check returns ""
// when the result passes and a one-line reason when it does not.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "core/spectral.h"
#include "sparse/coo.h"

namespace perfbench {

/// A job's input graph plus the degree vector the checks derive from it.
struct CheckedGraph {
  explicit CheckedGraph(const fastsc::sparse::Coo& w);

  const fastsc::sparse::Coo& w;
  std::vector<real> sqrt_degree;  ///< sqrt of each row sum of w
};

/// Eigenpairs of S = D^-1/2 W D^-1/2: v_i = D^1/2 * embedding column i
/// (renormalized) must satisfy ||S v_i - lambda_i v_i|| <= tol, the v_i must
/// be orthonormal, every lambda must lie in [-1, 1], and the largest must be
/// 1 (the input is connected).  `tol` is the solver tolerance.
[[nodiscard]] std::string check_eigenpairs(
    const CheckedGraph& g, const fastsc::core::SpectralResult& r, real tol);

/// k-means converged and the labels are a Lloyd fixed point: every
/// embedding row is nearest to the mean of its own cluster.
[[nodiscard]] std::string check_kmeans(const fastsc::core::SpectralResult& r);

/// Adjusted Rand index of `labels` against `truth` is at least `min_ari`.
[[nodiscard]] std::string check_ari(const std::vector<index_t>& labels,
                                    const std::vector<index_t>& truth,
                                    real min_ari);

/// The two label vectors are byte-identical.
[[nodiscard]] std::string check_same_labels(const std::vector<index_t>& a,
                                            const std::vector<index_t>& b);

/// A cache hit returns exactly the labels and eigenvalues of the job whose
/// solve filled the entry.
[[nodiscard]] std::string check_cache_hit(
    const fastsc::core::SpectralResult& hit,
    const fastsc::core::SpectralResult& filler);

/// Feed every check above a corrupted copy of `good` (a result that passes
/// them) and return "" when each check rejects its corruption, else which
/// check let a corruption through.  `truth` may be null (no ARI check).
[[nodiscard]] std::string self_test(const CheckedGraph& g,
                                    const fastsc::core::SpectralResult& good,
                                    const std::vector<index_t>* truth,
                                    real min_ari, real tol);

}  // namespace perfbench
