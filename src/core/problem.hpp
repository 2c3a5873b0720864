// Problem preparation — the shared front half of every experiment: generate
// (or load) a matrix, diagonally scale it (the paper scales all matrices),
// build the uniform-[0,1) right-hand side, and wrap the matrix in the
// multi-precision store the solvers draw their typed operators from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/nested_builder.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// A prepared linear system: diagonally scaled matrix (the paper scales all
/// matrices), uniform-[0,1) right-hand side, zero initial guess.
struct PreparedProblem {
  std::string name;
  bool symmetric = false;
  double alpha_ilu = 1.0;
  double alpha_ainv = 1.0;
  std::shared_ptr<MultiPrecMatrix> a;
  std::vector<double> b;
  /// FNV-1a fingerprint of the prepared (sorted, diagonally scaled) fp64
  /// matrix + symmetry flag (core/fingerprint.hpp) — the autotuner's
  /// perf-DB key.  prepare_problem fills it; hand-assembled problems may
  /// leave it 0 (the tuner recomputes on demand).  Computed AFTER scaling,
  /// so the library path and the daemon path (which keys its ProblemTable
  /// on the RAW client bytes) agree on the identity of what is solved.
  std::uint64_t fingerprint = 0;
};

/// Scale `a` symmetrically, build the RHS, wrap in MultiPrecMatrix.
/// `use_sell` selects the sliced-ELLPACK kernels (GPU-node configuration).
PreparedProblem prepare_problem(std::string name, CsrMatrix<double> a, bool symmetric,
                                double alpha_ilu, double alpha_ainv, std::uint64_t rhs_seed,
                                bool use_sell = false);

/// Generate + prepare a Table 2 stand-in by paper name.
PreparedProblem prepare_standin(const std::string& paper_name, int scale,
                                std::uint64_t rhs_seed = 7, bool use_sell = false);

/// k seeded uniform-[0,1) right-hand sides, column c seeded `seed0 + c`
/// (column 0 reproduces prepare_problem's RHS when seed0 = rhs_seed).
std::vector<double> batch_rhs(const PreparedProblem& p, int k, std::uint64_t seed0 = 7);

}  // namespace nk
