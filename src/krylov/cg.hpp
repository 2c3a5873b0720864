// Preconditioned Conjugate Gradient — the paper's baseline for symmetric
// positive definite systems ("CG is the de facto standard for SPD").
//
// The paper's fp64-CG / fp32-CG / fp16-CG are all fp64 solvers differing
// only in the storage precision of the preconditioner, which is handled by
// the PrimaryPrecond handle the caller passes in.
//
// Lifecycle: setup(a, m) binds a system and acquires the four working
// vectors from a SolverWorkspace (shared or private); solve()/solve_many()
// then run with zero per-call allocation, and a later setup() against an
// equally-sized matrix reuses the same memory.
//
// solve_many() advances k right-hand sides in lockstep: one batched SpMM
// and one batched preconditioner sweep per iteration stream the matrix and
// the factors once for the whole batch, and the per-column reductions run
// interleaved (dot_cols/nrm2_cols) so their k dependency chains overlap.
// Per column every operation reproduces solve()'s — batched and
// sequential solves agree to the last bit whenever the underlying blas1
// reductions are deterministic (single-threaded or below the parallel
// threshold; the regime the exactness tests pin), and to rounding level
// otherwise.  Columns converge (or break down) independently and are
// frozen the moment they finish.
//
// Active-set compaction (default): when a column retires, the survivors
// are compacted into the leading columns of the interleaved R/Z/P/Q
// panels (an active→original index map scatters the x updates back to
// caller positions), so every SpMM, preconditioner sweep, and column
// reduction runs at the CURRENT width — re-dispatching through the
// compile-time k = 4/8/16 kernel tiers as the set shrinks — instead of
// paying full width k until the last straggler finishes.  Compaction
// moves column data verbatim and never reorders any per-column operation,
// so iterates stay bit-identical to solve().  The `wave` argument turns
// the same loop into a ragged-batch scheduler: k right-hand sides are
// dispatched at most `wave` at a time, and a slot freed by a retiring
// column is refilled from the pending queue at the next iteration
// boundary — one workspace, sized for the wave, serves the whole batch.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "base/workspace.hpp"
#include "krylov/history.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

template <class VT = double>
class CgSolver {
 public:
  struct Config {
    double rtol = 1e-8;     ///< on ‖r‖ / ‖b‖ (recurrence residual)
    int max_iters = 19200;  ///< the paper's iteration cap
    bool record_history = false;
    /// Stagnation guard: stop with SolveStatus::kStagnated after this many
    /// consecutive iterations without relative-residual progress (rnorm
    /// failing to improve on 0.99× the best seen).  0 = off (default; the
    /// conformance-pinned behavior).  Pure comparisons on the already-
    /// computed norms — iterate streams are untouched.
    int stagnate_window = 0;
    /// Non-finite panel scan (compact batched path): when a residual norm
    /// comes out non-finite, scan the R panel and attribute the first
    /// poisoned column's failure to kNonFinite("panel") instead of
    /// "rnorm".  Off by default — the residual-NORM check already retires
    /// NaN columns for free; the scan only sharpens attribution, so a pass
    /// whose norms are all finite never runs it.
    bool guard_panels = false;
    /// Batched scheduling: true (default) = active-set compaction (kernels
    /// run at the current active width); false = the PR 3 masked-lockstep
    /// reference path (full-width kernels, per-column apply fallback),
    /// kept for A/B benching.  Iterates are bit-identical either way.
    bool compact = true;
  };

  /// Deferred-setup construction (no allocation until setup()).
  explicit CgSolver(Config cfg, SolverWorkspace* ws = nullptr, std::string key = "cg")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  CgSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
           SolverWorkspace* ws = nullptr, std::string key = "cg")
      : CgSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Buffer spans point into own_ (or the shared workspace); a copy would
  // alias them.  Two live solvers on one workspace need distinct keys.
  CgSolver(const CgSolver&) = delete;
  CgSolver& operator=(const CgSolver&) = delete;

  /// Bind a system; acquires (or reuses) the workspace vectors.  The
  /// kernel dispatch table is rebound here too: solvers run on whatever
  /// backend the workspace was built for.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    SolverWorkspace& w = wsref();
    kx_ = kern::Kernels(w.backend());
    r_ = w.get<VT>(key_ + ".r", n_);
    z_ = w.get<VT>(key_ + ".z", n_);
    p_ = w.get<VT>(key_ + ".p", n_);
    q_ = w.get<VT>(key_ + ".q", n_);
  }

  /// Solve A x = b from the given initial guess; returns iteration data.
  /// (final_relres / seconds / solver name are filled by the caller, which
  /// owns true-residual evaluation and timing.)
  SolveResult solve(std::span<const VT> b, std::span<VT> x);

  /// Batched solve: k systems A x_c = b_c in lockstep (column c of B/X at
  /// b + c·ldb / x + c·ldx).  Per column bit-identical to solve().
  /// `wave` > 0 caps the dispatch width: the batch runs as waves of at most
  /// `wave` columns, refilled from the pending queue as columns retire
  /// (0 = whole batch at once).  Waves require the compacting scheduler;
  /// the masked reference path (Config::compact = false) is always full
  /// lockstep and ignores `wave`.
  std::vector<SolveResult> solve_many(const VT* b, std::ptrdiff_t ldb, VT* x,
                                      std::ptrdiff_t ldx, int k, int wave = 0);

 private:
  void solve_many_masked(const VT* b, std::ptrdiff_t ldb, VT* x, std::ptrdiff_t ldx,
                         int k, std::vector<SolveResult>& res);
  void solve_many_compact(const VT* b, std::ptrdiff_t ldb, VT* x, std::ptrdiff_t ldx,
                          int k, int wave, std::vector<SolveResult>& res);

  [[nodiscard]] SolverWorkspace& wsref() { return ws_ != nullptr ? *ws_ : own_; }

  Operator<VT>* a_ = nullptr;
  Preconditioner<VT>* m_ = nullptr;
  Config cfg_;
  std::size_t n_ = 0;
  SolverWorkspace* ws_ = nullptr;
  SolverWorkspace own_;
  std::string key_;
  kern::Kernels kx_;
  std::span<VT> r_, z_, p_, q_;
};

}  // namespace nk
