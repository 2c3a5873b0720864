// Flexible GMRES (Saad 1993) — the building block of the nested Krylov
// framework.
//
// Flexible means the preconditioner may change between iterations, which is
// exactly what a nested inner solver is; FGMRES therefore stores the
// preconditioned basis Z alongside the Arnoldi basis V and forms the
// update from Z.
//
// Implementation follows the paper: classical Gram-Schmidt for the Arnoldi
// process and Givens rotations for the least-squares QR, with all Arnoldi /
// QR scalars and vectors held in the solver's vector precision VT (fp32 in
// the inner levels of F3R; reductions over fp16 inputs accumulate fp32).
//
// The Arnoldi basis V and the preconditioned basis Z live in single
// contiguous row-major buffers (vector j at offset j·n), and the CGS
// projection / correction / normalization run through the fused kernels in
// base/blas_block.hpp (dot_many / axpy_many / scal_copy): one pass over the
// basis block per step instead of 2(j+1) blas1 launches re-reading w.  The
// fused kernels reproduce the blas1 operation sequence bit-for-bit (see
// blas_block.hpp), so only the schedule changed, not the math.
//
// Lifecycle (the setup/solve split): construction binds the configuration;
// setup(a, m) binds a matrix/preconditioner pair and acquires every buffer
// from a SolverWorkspace — an external one shared across solvers and
// matrices, or a private fallback.  After setup, run()/apply()/run_many()
// perform no allocation, and a later setup() against an equally-sized (or
// smaller) system reuses the same memory.
//
// The same class serves three roles:
//   * inner solver: apply() — solve A z ≈ v from a zero initial guess for
//     exactly m iterations, no convergence test (the paper checks
//     convergence only in the outermost solver);
//   * outer solver: run() — iterate from a given x with an absolute
//     residual target, reporting the Givens residual estimate;
//   * batched outer solver: run_many() — k right-hand sides in lockstep,
//     sharing every matrix sweep (SpMM) and preconditioner sweep across
//     the batch while reproducing run()'s per-column iterates exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "base/workspace.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

template <class VT>
class FgmresSolver final : public Preconditioner<VT> {
 public:
  /// Scalar type of the Arnoldi/QR data (fp32 for VT=half).
  using S = acc_t<VT>;

  struct Config {
    int m = 8;  ///< Krylov dimension per invocation / restart cycle
    /// Dynamic inner termination (the paper's second future-work item):
    /// when > 0 and the solver is used as an inner solver (apply()), stop
    /// as soon as the Givens residual estimate has dropped below
    /// inner_rtol · ‖v‖ instead of always running all m iterations.
    double inner_rtol = 0.0;
    /// Batched run_many scheduling: true (default) = active-set compaction
    /// (the preconditioner/operator sweeps run at the current active width
    /// through a gather/scatter layer); false = the PR 3 masked-lockstep
    /// reference path.  Iterates are bit-identical either way.
    bool compact = true;
  };

  struct RunStats {
    int iters = 0;                 ///< Arnoldi steps performed
    double residual_est = 0.0;     ///< Givens estimate of ‖b − Ax‖₂
    bool reached_target = false;
    /// Terminal-cause markers for the engines' SolveStatus attribution:
    /// `breakdown` = the eps-scaled hj1 test ended the cycle with finite
    /// arithmetic (possibly a lucky breakdown — the caller still checks the
    /// true residual); `non_finite` = a NaN/Inf norm (beta or hj1) ended it.
    bool breakdown = false;
    bool non_finite = false;
  };

  /// Deferred-setup construction: no matrix bound, no memory acquired.
  /// `ws` (optional) is the workspace every buffer is drawn from under
  /// `key`-prefixed names; null → a private workspace.
  explicit FgmresSolver(Config cfg, SolverWorkspace* ws = nullptr,
                        std::string key = "fgmres")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  FgmresSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
               SolverWorkspace* ws = nullptr, std::string key = "fgmres")
      : FgmresSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Buffer spans point into own_ (or the shared workspace); a copy would
  // alias them.  Two live solvers on one workspace need distinct keys.
  FgmresSolver(const FgmresSolver&) = delete;
  FgmresSolver& operator=(const FgmresSolver&) = delete;

  /// Bind a system and acquire workspace.  Runs once per matrix; repeated
  /// setup against a same-sized system performs zero allocation.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    const std::size_t mm = static_cast<std::size_t>(cfg_.m);
    SolverWorkspace& w = wsref();
    this->set_backend(w.backend());  // kernel dispatch follows the workspace
    vbuf_ = w.get<VT>(key_ + ".V", (mm + 1) * n_);
    zbuf_ = w.get<VT>(key_ + ".Z", mm * n_);
    w_ = w.get<VT>(key_ + ".w", n_);
    h_ = w.get<S>(key_ + ".h", (mm + 1) * mm);
    g_ = w.get<S>(key_ + ".g", mm + 1);
    cs_ = w.get<S>(key_ + ".cs", mm);
    sn_ = w.get<S>(key_ + ".sn", mm);
    y_ = w.get<S>(key_ + ".y", mm);
    hcol_ = w.get<S>(key_ + ".hcol", mm + 1);
    this->kern_table().set_zero(vbuf_);
    this->kern_table().set_zero(zbuf_);
    std::fill(h_.begin(), h_.end(), S{0});
  }

  /// Inner-solver interface: z ≈ A⁻¹ v, zero initial guess, m iterations
  /// (fewer when Config::inner_rtol enables dynamic termination).
  void apply(std::span<const VT> v, std::span<VT> z) override {
    this->kern_table().set_zero(z);
    double target = 0.0;
    if (cfg_.inner_rtol > 0.0)
      target = cfg_.inner_rtol * static_cast<double>(this->kern_table().nrm2(v));
    run(v, z, target, /*x_nonzero=*/false);
  }

  /// Outer-solver interface: continue from x; stop when the Givens residual
  /// estimate drops below `abs_target` (0 → run all m iterations).
  RunStats run(std::span<const VT> b, std::span<VT> x, double abs_target,
               bool x_nonzero = true) {
    const auto n = b.size();
    RunStats stats;

    // r0 (x = 0 ⇒ r0 = b without an SpMV).
    if (x_nonzero) {
      a_->residual(b, std::span<const VT>(x.data(), n), vcol(0));
    } else {
      this->kern_table().copy(b, vcol(0));
    }
    const S beta = this->kern_table().nrm2(std::span<const VT>(vcol(0)));
    if (!(static_cast<double>(beta) > 0.0) || !std::isfinite(static_cast<double>(beta))) {
      stats.residual_est = static_cast<double>(beta);
      stats.non_finite = !std::isfinite(static_cast<double>(beta));
      stats.reached_target = static_cast<double>(beta) <= abs_target;
      return stats;
    }
    this->kern_table().scal(S{1} / beta, vcol(0));
    std::fill(g_.begin(), g_.end(), S{0});
    g_[0] = beta;

    const int m = cfg_.m;
    int j = 0;
    for (; j < m; ++j) {
      // Flexible preconditioning: z_j = M⁻¹ v_j (M may itself be a solver).
      m_->apply(std::span<const VT>(vcol(j)), zcol(j));
      a_->apply(std::span<const VT>(zcol(j)), std::span<VT>(w_));

      // Classical Gram-Schmidt: all projections against the ORIGINAL w,
      // fused — one sweep over the contiguous basis block for the j+1
      // dots, one read-modify-write of w for the j+1 corrections.
      this->kern_table().dot_many(vbuf_.data(), static_cast<std::ptrdiff_t>(n_), j + 1,
                     std::span<const VT>(w_.data(), n_), hcol_.data());
      this->kern_table().axpy_many(vbuf_.data(), static_cast<std::ptrdiff_t>(n_), j + 1, hcol_.data(),
                      std::span<VT>(w_.data(), n_), /*subtract=*/true);
      S hj1 = this->kern_table().nrm2(std::span<const VT>(w_.data(), n_));

      const double res = givens_update(hcol_.data(), g_.data(), cs_.data(), sn_.data(),
                                       h_.data(), j, hj1);
      ++total_iterations_;
      if (iter_log_ != nullptr) iter_log_->push_back(res);
      const bool breakdown =
          !(static_cast<double>(hj1) > breakdown_tol_ * static_cast<double>(beta));
      if (breakdown || (abs_target > 0.0 && res <= abs_target)) {
        stats.reached_target = res <= abs_target || breakdown;
        stats.breakdown = breakdown && std::isfinite(static_cast<double>(hj1));
        stats.non_finite = breakdown && !std::isfinite(static_cast<double>(hj1));
        ++j;
        break;
      }
      // Normalize the next basis vector: v_{j+1} = w/h in a single write
      // (w is scratch and is rebuilt by the next A·z, so it need not be
      // scaled in place).
      this->kern_table().scal_copy(S{1} / hj1, std::span<const VT>(w_.data(), n_), vcol(j + 1));
    }
    stats.iters = std::min(j, m);
    stats.residual_est = std::abs(static_cast<double>(g_[std::min(j, m)]));

    // Back substitution R y = g and update x += Z y.
    back_substitute(h_.data(), g_.data(), y_.data(), stats.iters);
    if (stats.iters > 0)
      this->kern_table().axpy_many(zbuf_.data(), static_cast<std::ptrdiff_t>(n_), stats.iters, y_.data(),
                      std::span<VT>(x.data(), n_));  // bound by n_, x may be oversized
    return stats;
  }

  /// Batched outer interface: advance k right-hand sides in lockstep
  /// through one FGMRES cycle.  Column c of B/X lives at b + c·ldb and
  /// x + c·ldx.  While every column stays live the preconditioner and
  /// operator are applied once per step for the whole batch (one matrix
  /// sweep via SpMM); per column the operation sequence — and therefore
  /// every iterate and the Givens estimate — is identical to run() on that
  /// column alone, provided M is stateless across apply() calls (primary
  /// preconditioners are; nested tuples with adaptive Richardson state are
  /// batched by NestedSolver::solve_many instead, which preserves the
  /// state's invocation order).  A column that converges or breaks down is
  /// frozen and costs nothing further.  No iteration log is recorded.
  ///
  /// With Config::compact (the default) the survivor set is compacted:
  /// once a column freezes, the per-step preconditioner and operator
  /// sweeps run at the CURRENT active width over gather panels (active
  /// columns' v_j gathered to contiguous slots, z_j scattered back into
  /// their per-column basis blocks), re-dispatching through the
  /// compile-time k = 4/8/16 kernels as the set shrinks.  The basis
  /// blocks, Hessenberg data, and every per-column operation are untouched
  /// by compaction, so iterates match run() (and the masked path) to the
  /// bit.
  std::vector<RunStats> run_many(const VT* b, std::ptrdiff_t ldb, VT* x,
                                 std::ptrdiff_t ldx, int k, double abs_target,
                                 bool x_nonzero = true) {
    std::vector<RunStats> stats(static_cast<std::size_t>(std::max(k, 0)));
    if (k <= 0) return stats;
    const std::size_t kk = static_cast<std::size_t>(k);
    const std::size_t mm = static_cast<std::size_t>(cfg_.m);
    const std::size_t vstr = (mm + 1) * n_;  // one column's V block
    const std::size_t zstr = mm * n_;
    SolverWorkspace& w = wsref();
    auto VB = w.get<VT>(key_ + ".bat.V", kk * vstr);
    auto ZB = w.get<VT>(key_ + ".bat.Z", kk * zstr);
    auto WB = w.get<VT>(key_ + ".bat.w", kk * n_);
    auto HB = w.get<S>(key_ + ".bat.h", kk * (mm + 1) * mm);
    auto GB = w.get<S>(key_ + ".bat.g", kk * (mm + 1));
    auto CS = w.get<S>(key_ + ".bat.cs", kk * mm);
    auto SN = w.get<S>(key_ + ".bat.sn", kk * mm);
    auto YB = w.get<S>(key_ + ".bat.y", kk * mm);
    auto HC = w.get<S>(key_ + ".bat.hcol", kk * (mm + 1));
    auto beta = w.get<S>(key_ + ".bat.beta", kk);
    auto act = w.get<unsigned char>(key_ + ".bat.act", kk);
    // Compaction state: gather panels for v_j / z_j and the
    // active→original map (only touched on the compact path).
    auto VS = w.get<VT>(key_ + ".bat.vs", cfg_.compact ? kk * n_ : 0);
    auto ZS = w.get<VT>(key_ + ".bat.zs", cfg_.compact ? kk * n_ : 0);
    auto map = w.get<int>(key_ + ".bat.map", kk);

    auto vc = [&](int c, int j) {
      return std::span<VT>(VB.data() + static_cast<std::size_t>(c) * vstr +
                               static_cast<std::size_t>(j) * n_, n_);
    };
    auto zc = [&](int c, int j) {
      return std::span<VT>(ZB.data() + static_cast<std::size_t>(c) * zstr +
                               static_cast<std::size_t>(j) * n_, n_);
    };
    auto wc = [&](int c) {
      return std::span<VT>(WB.data() + static_cast<std::size_t>(c) * n_, n_);
    };

    // r0 per column (one shared A sweep when x is nonzero).
    if (x_nonzero) {
      a_->residual_many(b, ldb, x, ldx, VB.data(), static_cast<std::ptrdiff_t>(vstr), k);
    } else {
      for (int c = 0; c < k; ++c)
        this->kern_table().copy(std::span<const VT>(b + static_cast<std::ptrdiff_t>(c) * ldb, n_),
                   vc(c, 0));
    }
    int nactive = 0;
    for (int c = 0; c < k; ++c) {
      beta[c] = this->kern_table().nrm2(std::span<const VT>(vc(c, 0)));
      const double bd = static_cast<double>(beta[c]);
      if (!(bd > 0.0) || !std::isfinite(bd)) {
        stats[c].residual_est = bd;
        stats[c].non_finite = !std::isfinite(bd);
        stats[c].reached_target = bd <= abs_target;
        act[c] = 0;
        continue;
      }
      this->kern_table().scal(S{1} / beta[c], vc(c, 0));
      S* g = GB.data() + static_cast<std::size_t>(c) * (mm + 1);
      std::fill(g, g + mm + 1, S{0});
      g[0] = beta[c];
      act[c] = 1;
      if (cfg_.compact) map[nactive] = c;
      ++nactive;
    }

    const int m = cfg_.m;
    for (int j = 0; j < m && nactive > 0; ++j) {
      // Preconditioner + operator at the current width.  The survivor map
      // is always sorted (stable compaction), so whenever the live set is
      // a contiguous column range — always at full width, and typically
      // under FIFO wave retirement — the applies run DIRECTLY on the basis
      // blocks at their natural stride, zero copies.  A ragged survivor
      // set gathers the active v_j into contiguous slots, applies at width
      // nactive, and scatters z_j back into the per-column Z blocks (the
      // masked path instead falls back to per-column applies).  Either way
      // each column's apply is bit-identical to run()'s, and M/A see
      // exactly one application per live column.
      bool direct = !cfg_.compact;  // compact: set per step below
      if (cfg_.compact) {
        const int c0 = map[0];
        direct = map[nactive - 1] - c0 == nactive - 1;
        if (direct) {
          m_->apply_many(VB.data() + static_cast<std::size_t>(c0) * vstr +
                             static_cast<std::size_t>(j) * n_,
                         static_cast<std::ptrdiff_t>(vstr),
                         ZB.data() + static_cast<std::size_t>(c0) * zstr +
                             static_cast<std::size_t>(j) * n_,
                         static_cast<std::ptrdiff_t>(zstr), nactive);
          a_->apply_many(ZB.data() + static_cast<std::size_t>(c0) * zstr +
                             static_cast<std::size_t>(j) * n_,
                         static_cast<std::ptrdiff_t>(zstr),
                         WB.data() + static_cast<std::size_t>(c0) * n_,
                         static_cast<std::ptrdiff_t>(n_), nactive);
        } else {
          for (int i = 0; i < nactive; ++i)
            this->kern_table().copy(std::span<const VT>(vc(map[i], j)),
                       std::span<VT>(VS.data() + static_cast<std::size_t>(i) * n_, n_));
          m_->apply_many(VS.data(), static_cast<std::ptrdiff_t>(n_), ZS.data(),
                         static_cast<std::ptrdiff_t>(n_), nactive);
          a_->apply_many(ZS.data(), static_cast<std::ptrdiff_t>(n_), WB.data(),
                         static_cast<std::ptrdiff_t>(n_), nactive);
          for (int i = 0; i < nactive; ++i)
            this->kern_table().copy(std::span<const VT>(ZS.data() + static_cast<std::size_t>(i) * n_, n_),
                       zc(map[i], j));
        }
      } else if (nactive == k) {
        m_->apply_many(VB.data() + static_cast<std::size_t>(j) * n_,
                       static_cast<std::ptrdiff_t>(vstr),
                       ZB.data() + static_cast<std::size_t>(j) * n_,
                       static_cast<std::ptrdiff_t>(zstr), k);
        a_->apply_many(ZB.data() + static_cast<std::size_t>(j) * n_,
                       static_cast<std::ptrdiff_t>(zstr), WB.data(),
                       static_cast<std::ptrdiff_t>(n_), k);
      } else {
        for (int c = 0; c < k; ++c) {
          if (!act[c]) continue;
          m_->apply(std::span<const VT>(vc(c, j)), zc(c, j));
          a_->apply(std::span<const VT>(zc(c, j)), wc(c));
        }
      }
      // CGS + Givens per live column.  In direct mode column c's w vector
      // sits at its original position c; in gather mode slot i's w sits at
      // gather position i — `slot` abstracts the two.
      const int loop_n = cfg_.compact ? nactive : k;
      int nkeep = 0;
      for (int i = 0; i < loop_n; ++i) {
        const int c = cfg_.compact ? map[i] : i;
        if (!act[c]) continue;
        const int slot = direct ? c : i;
        S* hcol = HC.data() + static_cast<std::size_t>(c) * (mm + 1);
        S* g = GB.data() + static_cast<std::size_t>(c) * (mm + 1);
        S* cs = CS.data() + static_cast<std::size_t>(c) * mm;
        S* sn = SN.data() + static_cast<std::size_t>(c) * mm;
        S* h = HB.data() + static_cast<std::size_t>(c) * (mm + 1) * mm;
        const VT* vbase = VB.data() + static_cast<std::size_t>(c) * vstr;
        this->kern_table().dot_many(vbase, static_cast<std::ptrdiff_t>(n_), j + 1,
                       std::span<const VT>(wc(slot)), hcol);
        this->kern_table().axpy_many(vbase, static_cast<std::ptrdiff_t>(n_), j + 1, hcol, wc(slot),
                        /*subtract=*/true);
        const S hj1 = this->kern_table().nrm2(std::span<const VT>(wc(slot)));
        const double res = givens_update(hcol, g, cs, sn, h, j, hj1);
        ++total_iterations_;
        const bool breakdown =
            !(static_cast<double>(hj1) > breakdown_tol_ * static_cast<double>(beta[c]));
        stats[c].iters = j + 1;
        stats[c].residual_est = std::abs(static_cast<double>(g[j + 1]));
        if (breakdown || (abs_target > 0.0 && res <= abs_target)) {
          stats[c].reached_target = res <= abs_target || breakdown;
          stats[c].breakdown = breakdown && std::isfinite(static_cast<double>(hj1));
          stats[c].non_finite = breakdown && !std::isfinite(static_cast<double>(hj1));
          act[c] = 0;
          if (!cfg_.compact) --nactive;
          continue;
        }
        this->kern_table().scal_copy(S{1} / hj1, std::span<const VT>(wc(slot)), vc(c, j + 1));
        if (cfg_.compact) map[nkeep++] = c;  // stable survivor compaction
      }
      if (cfg_.compact) nactive = nkeep;
    }

    // Per-column back substitution and solution update x_c += Z_c y_c.
    for (int c = 0; c < k; ++c) {
      const int kc = stats[c].iters;
      if (kc == 0) continue;
      S* g = GB.data() + static_cast<std::size_t>(c) * (mm + 1);
      S* h = HB.data() + static_cast<std::size_t>(c) * (mm + 1) * mm;
      S* y = YB.data() + static_cast<std::size_t>(c) * mm;
      back_substitute(h, g, y, kc);
      this->kern_table().axpy_many(ZB.data() + static_cast<std::size_t>(c) * zstr,
                      static_cast<std::ptrdiff_t>(n_), kc, y,
                      std::span<VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_));
    }
    return stats;
  }

  [[nodiscard]] index_t size() const override { return a_->size(); }

  /// Total Arnoldi steps across all invocations (cost-model validation).
  [[nodiscard]] std::uint64_t total_iterations() const { return total_iterations_; }

  /// Optional per-iteration log: run() appends the absolute Givens residual
  /// estimate after every Arnoldi step (used by outer solvers to record
  /// convergence histories).  Pass nullptr to disable.
  void set_iteration_log(std::vector<double>* log) { iter_log_ = log; }

 private:
  [[nodiscard]] SolverWorkspace& wsref() { return ws_ != nullptr ? *ws_ : own_; }

  [[nodiscard]] std::size_t col_major(int i, int j) const {
    return static_cast<std::size_t>(j) * (static_cast<std::size_t>(cfg_.m) + 1) +
           static_cast<std::size_t>(i);
  }

  /// Apply the accumulated Givens rotations to the new column `hcol`, form
  /// the rotation eliminating hj1, update g, and store the column into h.
  /// Returns the updated residual estimate |g[j+1]|.  Shared verbatim by
  /// the sequential and batched paths so they cannot drift.
  double givens_update(S* hcol, S* g, S* cs, S* sn, S* h, int j, S hj1) {
    for (int i = 0; i < j; ++i) {
      const S t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
      hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
      hcol[i] = t;
    }
    const S denom = std::sqrt(hcol[j] * hcol[j] + hj1 * hj1);
    if (static_cast<double>(denom) > 0.0 && std::isfinite(static_cast<double>(denom))) {
      cs[j] = hcol[j] / denom;
      sn[j] = hj1 / denom;
    } else {
      cs[j] = S{1};
      sn[j] = S{0};
    }
    hcol[j] = cs[j] * hcol[j] + sn[j] * hj1;
    g[j + 1] = -sn[j] * g[j];
    g[j] = cs[j] * g[j];
    for (int i = 0; i <= j; ++i) h[col_major(i, j)] = hcol[i];
    return std::abs(static_cast<double>(g[j + 1]));
  }

  /// Solve the k×k upper-triangular system R y = g (in-place arrays).
  void back_substitute(const S* h, const S* g, S* y, int k) const {
    for (int i = k - 1; i >= 0; --i) {
      S s = g[i];
      for (int l = i + 1; l < k; ++l) s -= h[col_major(i, l)] * y[l];
      const S hii = h[col_major(i, i)];
      y[i] = (hii != S{0}) ? s / hii : S{0};
    }
  }

  /// Column j of the contiguous Arnoldi basis (row-major, stride n).
  [[nodiscard]] std::span<VT> vcol(int j) {
    return {vbuf_.data() + static_cast<std::size_t>(j) * n_, n_};
  }
  /// Column j of the contiguous preconditioned basis.
  [[nodiscard]] std::span<VT> zcol(int j) {
    return {zbuf_.data() + static_cast<std::size_t>(j) * n_, n_};
  }

  Operator<VT>* a_ = nullptr;
  Preconditioner<VT>* m_ = nullptr;
  Config cfg_;
  std::size_t n_ = 0;

  SolverWorkspace* ws_ = nullptr;  ///< shared workspace (null → own_)
  SolverWorkspace own_;
  std::string key_;

  std::span<VT> vbuf_;  ///< Arnoldi basis V, (m+1)·n contiguous row-major
  std::span<VT> zbuf_;  ///< preconditioned basis Z, m·n contiguous
  std::span<VT> w_;
  std::span<S> h_, g_, cs_, sn_, y_, hcol_;
  std::vector<double>* iter_log_ = nullptr;
  std::uint64_t total_iterations_ = 0;
  // Breakdown threshold on hj1 relative to the cycle's initial residual
  // norm.  A numerically dependent Arnoldi vector leaves hj1 at the CGS
  // rounding-noise level, which is O(ε_S·β) for working scalar type S — a
  // fixed 1e-14 is therefore precision-blind: with fp32/fp16 inner
  // arithmetic (ε ≈ 1.2e-7) a genuine breakdown yields hj1 ≈ ε·β ≫ 1e-14·β,
  // the test never fires, and the cycle keeps orthogonalizing noise.
  // Scale by the working epsilon; the max() keeps the fp64 threshold at its
  // long-standing 1e-14 (16·ε_fp64 ≈ 3.6e-15 < 1e-14), so fp64 iterate
  // streams — and the committed conformance baseline — are unchanged.
  static constexpr double breakdown_tol_ =
      std::max(1e-14, 16.0 * static_cast<double>(std::numeric_limits<S>::epsilon()));
};

}  // namespace nk
