#include "krylov/cg.hpp"

#include <cmath>

#include "base/blas_block.hpp"

namespace nk {

template <class VT>
SolveResult CgSolver<VT>::solve(std::span<const VT> b, std::span<VT> x) {
  SolveResult res;
  res.solver = "cg";
  const auto n = b.size();
  std::span<VT> r(r_), z(z_), p(p_), q(q_);

  const double bnorm = static_cast<double>(kx_.nrm2(b));
  const double target = cfg_.rtol * (bnorm > 0.0 ? bnorm : 1.0);

  a_->residual(b, std::span<const VT>(x.data(), n), r);
  double rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
  if (cfg_.record_history) res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
  if (!std::isfinite(bnorm) || !std::isfinite(rnorm)) {
    res.fail(SolveStatus::kNonFinite, "rnorm");
    return res;
  }
  if (rnorm <= target) {
    res.mark_converged();
    return res;
  }
  // Stagnation guard state: comparisons only, never touches the iterates.
  double best = rnorm;
  int stall = 0;

  m_->apply(std::span<const VT>(r_), z);
  kx_.copy(std::span<const VT>(z_), p);
  auto rz = kx_.dot(std::span<const VT>(r_), std::span<const VT>(z_));

  for (int it = 1; it <= cfg_.max_iters; ++it) {
    a_->apply(std::span<const VT>(p_), q);
    const auto pq = kx_.dot(std::span<const VT>(p_), std::span<const VT>(q_));
    if (!(std::abs(static_cast<double>(pq)) > 0.0) ||
        !std::isfinite(static_cast<double>(pq))) {
      res.iterations = it;
      res.fail(std::isfinite(static_cast<double>(pq)) ? SolveStatus::kBreakdown
                                                      : SolveStatus::kNonFinite,
               "pivot");
      return res;  // breakdown (matrix not SPD w.r.t. p)
    }
    const auto alpha = rz / pq;
    kx_.axpy(alpha, std::span<const VT>(p_), x);
    kx_.axpy(-alpha, std::span<const VT>(q_), r);

    rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
    if (cfg_.record_history) res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
    res.iterations = it;
    if (!std::isfinite(rnorm)) {
      res.fail(SolveStatus::kNonFinite, "rnorm");
      return res;
    }
    if (rnorm <= target) {
      res.mark_converged();
      return res;
    }
    if (cfg_.stagnate_window > 0) {
      if (rnorm < 0.99 * best) {
        best = rnorm;
        stall = 0;
      } else if (++stall >= cfg_.stagnate_window) {
        res.fail(SolveStatus::kStagnated, "rnorm");
        return res;
      }
    }

    m_->apply(std::span<const VT>(r_), z);
    const auto rz_new = kx_.dot(std::span<const VT>(r_), std::span<const VT>(z_));
    const auto beta = rz_new / rz;
    rz = rz_new;
    kx_.axpby(static_cast<decltype(rz)>(1), std::span<const VT>(z_),
                static_cast<decltype(rz)>(beta), p);
  }
  return res;
}

template <class VT>
std::vector<SolveResult> CgSolver<VT>::solve_many(const VT* b, std::ptrdiff_t ldb, VT* x,
                                                  std::ptrdiff_t ldx, int k, int wave) {
  std::vector<SolveResult> res(static_cast<std::size_t>(std::max(k, 0)));
  for (auto& r : res) r.solver = "cg";
  if (k <= 0) return res;
  if (cfg_.compact) {
    solve_many_compact(b, ldb, x, ldx, k, wave, res);
  } else {
    solve_many_masked(b, ldb, x, ldx, k, res);
  }
  return res;
}

// Compacting batched CG — the default scheduler.  Survivor columns live in
// the leading `na` columns of the R/Z/P/Q panels; `map[j]` names the
// original column slot j is solving, and retirement swap-removes the slot
// (column data moves verbatim, so per-column arithmetic — and therefore
// every iterate — is solve()'s to the bit).  Every kernel runs at width
// `na`, falling through the compile-time k = 4/8/16 dispatch tiers as the
// set shrinks.  With 0 < wave < k the same loop becomes the ragged-batch
// scheduler: at most `wave` columns are in flight, and pending columns
// are initialized into freed slots at iteration boundaries.
template <class VT>
void CgSolver<VT>::solve_many_compact(const VT* b, std::ptrdiff_t ldb, VT* x,
                                      std::ptrdiff_t ldx, int k, int wave,
                                      std::vector<SolveResult>& res) {
  using S = acc_t<VT>;
  const int W = (wave > 0 && wave < k) ? wave : k;  // dispatch width
  const std::size_t ww = static_cast<std::size_t>(W);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", ww * n_);
  auto Z = w.get<VT>(key_ + ".bat.z", ww * n_);
  auto P = w.get<VT>(key_ + ".bat.p", ww * n_);
  auto Q = w.get<VT>(key_ + ".bat.q", ww * n_);
  auto rz = w.get<S>(key_ + ".bat.rz", ww);
  auto alpha = w.get<S>(key_ + ".bat.alpha", ww);
  auto nalpha = w.get<S>(key_ + ".bat.nalpha", ww);
  auto beta = w.get<S>(key_ + ".bat.beta", ww);
  auto ones = w.get<S>(key_ + ".bat.ones", ww);
  auto red = w.get<S>(key_ + ".bat.red", ww);  // dot/nrm2 results per slot
  auto target = w.get<double>(key_ + ".bat.target", ww);
  auto bref = w.get<double>(key_ + ".bat.bref", ww);
  auto itc = w.get<int>(key_ + ".bat.itc", ww);  // per-column iteration count
  auto map = w.get<int>(key_ + ".bat.map", ww);  // slot → original column
  auto best = w.get<double>(key_ + ".bat.best", ww);  // stagnation guard state
  auto stall = w.get<int>(key_ + ".bat.stall", ww);
  const std::ptrdiff_t nld = static_cast<std::ptrdiff_t>(n_);

  auto col = [&](std::span<VT> blk, int j) {
    return std::span<VT>(blk.data() + static_cast<std::size_t>(j) * n_, n_);
  };
  auto ccol = [&](std::span<VT> blk, int j) {
    return std::span<const VT>(blk.data() + static_cast<std::size_t>(j) * n_, n_);
  };
  auto cptr = [&](std::span<VT> blk, int j) {
    return blk.data() + static_cast<std::ptrdiff_t>(j) * nld;
  };
  for (int j = 0; j < W; ++j) ones[j] = S{1};

  int na = 0;    // live width
  int next = 0;  // head of the pending column queue

  // Initialize original column c into slot j — the exact operation sequence
  // of solve()'s preamble (nrm2_cols/dot_cols at width 1 are bit-identical
  // to the single-threaded blas1 reductions solve() runs).  Returns false
  // when the column finishes at iteration 0 and never occupies the slot.
  auto init_slot = [&](int j, int c) -> bool {
    map[j] = c;
    itc[j] = 0;
    kx_.nrm2_cols(b + static_cast<std::ptrdiff_t>(c) * ldb, ldb, 1, n_, &red[j]);
    const double bnorm = static_cast<double>(red[j]);
    if (!std::isfinite(bnorm)) {
      // Poisoned RHS: retire the column before it ever occupies a slot —
      // the rest of the wave keeps running at full width.
      res[c].fail(SolveStatus::kNonFinite, "b");
      return false;
    }
    bref[j] = bnorm > 0.0 ? bnorm : 1.0;
    target[j] = cfg_.rtol * bref[j];
    a_->residual(std::span<const VT>(b + static_cast<std::ptrdiff_t>(c) * ldb, n_),
                 std::span<const VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_),
                 col(R, j));
    kx_.nrm2_cols(cptr(R, j), nld, 1, n_, &red[j]);
    const double rnorm = static_cast<double>(red[j]);
    if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
    if (!std::isfinite(rnorm)) {
      res[c].fail(SolveStatus::kNonFinite, "rnorm");
      return false;
    }
    if (rnorm <= target[j]) {
      res[c].mark_converged();
      return false;
    }
    best[j] = rnorm;
    stall[j] = 0;
    m_->apply(ccol(R, j), col(Z, j));
    kx_.copy(ccol(Z, j), col(P, j));
    kx_.dot_cols(cptr(R, j), nld, cptr(Z, j), nld, 1, n_, &rz[j]);
    return true;
  };
  auto refill = [&]() {
    while (na < W && next < k)
      if (init_slot(na, next++)) ++na;
  };
  // Swap-remove: move slot src's live state into dst.  Z is pass-local
  // (rewritten by the trailing preconditioner apply before any read) and
  // never moves; Q is live only between A·P and the r update, which spans
  // the one mid-pass retirement site (the pq breakdown check), so it moves.
  auto move_slot = [&](int dst, int src) {
    if (dst == src) return;
    kx_.copy(ccol(R, src), col(R, dst));
    kx_.copy(ccol(P, src), col(P, dst));
    kx_.copy(ccol(Q, src), col(Q, dst));
    rz[dst] = rz[src];
    red[dst] = red[src];
    target[dst] = target[src];
    bref[dst] = bref[src];
    itc[dst] = itc[src];
    map[dst] = map[src];
    best[dst] = best[src];
    stall[dst] = stall[src];
  };

  refill();
  while (na > 0 || next < k) {
    // Iteration boundary: drop columns whose budget is exhausted (exactly
    // where solve()'s loop falls through) and top the wave back up.
    for (int j = 0; j < na;) {
      if (itc[j] >= cfg_.max_iters) {
        move_slot(j, --na);
      } else {
        ++j;
      }
    }
    refill();
    if (na == 0) break;

    a_->apply_many(P.data(), nld, Q.data(), nld, na);
    kx_.dot_cols(P.data(), nld, Q.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int it = ++itc[j];
      const S pq = red[j];
      if (!(std::abs(static_cast<double>(pq)) > 0.0) ||
          !std::isfinite(static_cast<double>(pq))) {
        res[map[j]].iterations = it;  // breakdown: retire where solve() returns
        res[map[j]].fail(std::isfinite(static_cast<double>(pq))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "pivot");
        move_slot(j, --na);
        continue;
      }
      alpha[j] = rz[j] / pq;
      nalpha[j] = -alpha[j];
      ++j;
    }
    if (na == 0) continue;

    // x_{map[j]} += α_j p_j (scattered through the index map into caller
    // columns); r_j −= α_j q_j.
    kx_.axpy_cols(alpha.data(), P.data(), nld, x, ldx, na, n_, nullptr, map.data());
    kx_.axpy_cols(nalpha.data(), Q.data(), nld, R.data(), nld, na, n_);
    kx_.nrm2_cols(R.data(), nld, na, n_, red.data());
    // Belt-and-braces panel guard (see Config::guard_panels).  The rnorm
    // check below already retires every poisoned column — a NaN/Inf
    // anywhere in r makes its norm non-finite — so the scan only sharpens
    // the failure site attribution, and runs only when some norm is
    // non-finite: a finite pass costs na scalar tests, not a panel sweep.
    bool any_nonfinite = false;
    for (int j = 0; j < na; ++j)
      any_nonfinite = any_nonfinite || !std::isfinite(static_cast<double>(red[j]));
    const int badc = cfg_.guard_panels && any_nonfinite
                         ? kx_.first_nonfinite_col(R.data(), nld, na, n_)
                         : -1;
    for (int j = 0; j < na;) {
      const int c = map[j];
      const double rnorm = static_cast<double>(red[j]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
      res[c].iterations = itc[j];
      if (!std::isfinite(rnorm)) {
        res[c].fail(SolveStatus::kNonFinite, j == badc ? "panel" : "rnorm");
        move_slot(j, --na);
        continue;
      }
      if (rnorm <= target[j]) {
        res[c].mark_converged();
        move_slot(j, --na);
        continue;
      }
      if (cfg_.stagnate_window > 0) {
        if (rnorm < 0.99 * best[j]) {
          best[j] = rnorm;
          stall[j] = 0;
        } else if (++stall[j] >= cfg_.stagnate_window) {
          res[c].fail(SolveStatus::kStagnated, "rnorm");
          move_slot(j, --na);
          continue;
        }
      }
      ++j;
    }
    if (na == 0) continue;

    // The trailing preconditioner apply and direction update run even on a
    // column's final iteration, exactly as solve()'s loop body does.
    m_->apply_many(R.data(), nld, Z.data(), nld, na);
    kx_.dot_cols(R.data(), nld, Z.data(), nld, na, n_, red.data());
    for (int j = 0; j < na; ++j) {
      beta[j] = red[j] / rz[j];
      rz[j] = red[j];
    }
    // p_j = z_j + β_j p_j.
    kx_.axpby_cols(ones.data(), Z.data(), nld, beta.data(), P.data(), nld, na, n_);
  }
}

// Masked lockstep batched CG — the PR 3 reference path (cfg.compact =
// false).  Each step performs the sequential solve()'s operations per
// column — the same blas1 reductions, the same element-local updates via
// the masked column kernels, and the matrix/preconditioner sweeps shared
// across the batch (bit-identical per column to k separate apply() calls
// by the operators' apply_many contract).  A column leaves the active set
// exactly where solve() would have returned, and is never touched again;
// the panels keep full width k throughout.
template <class VT>
void CgSolver<VT>::solve_many_masked(const VT* b, std::ptrdiff_t ldb, VT* x,
                                     std::ptrdiff_t ldx, int k,
                                     std::vector<SolveResult>& res) {
  using S = acc_t<VT>;
  const std::size_t kk = static_cast<std::size_t>(k);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", kk * n_);
  auto Z = w.get<VT>(key_ + ".bat.z", kk * n_);
  auto P = w.get<VT>(key_ + ".bat.p", kk * n_);
  auto Q = w.get<VT>(key_ + ".bat.q", kk * n_);
  auto rz = w.get<S>(key_ + ".bat.rz", kk);
  auto alpha = w.get<S>(key_ + ".bat.alpha", kk);
  auto nalpha = w.get<S>(key_ + ".bat.nalpha", kk);
  auto beta = w.get<S>(key_ + ".bat.beta", kk);
  auto ones = w.get<S>(key_ + ".bat.ones", kk);
  auto red = w.get<S>(key_ + ".bat.red", kk);  // dot/nrm2 results per column
  auto target = w.get<double>(key_ + ".bat.target", kk);
  auto bref = w.get<double>(key_ + ".bat.bref", kk);
  auto act = w.get<unsigned char>(key_ + ".bat.act", kk);
  auto best = w.get<double>(key_ + ".bat.best", kk);  // stagnation guard state
  auto stall = w.get<int>(key_ + ".bat.stall", kk);
  const std::ptrdiff_t nld = static_cast<std::ptrdiff_t>(n_);

  auto col = [&](std::span<VT> blk, int c) {
    return std::span<VT>(blk.data() + static_cast<std::size_t>(c) * n_, n_);
  };
  auto ccol = [&](std::span<VT> blk, int c) {
    return std::span<const VT>(blk.data() + static_cast<std::size_t>(c) * n_, n_);
  };

  // The reductions below (nrm2_cols / dot_cols) reproduce the sequential
  // solve()'s blas1 reductions bit-for-bit in their single-threaded form;
  // see blas_block.hpp.
  int nactive = 0;
  a_->residual_many(b, ldb, x, ldx, R.data(), nld, k);
  kx_.nrm2_cols(b, ldb, k, n_, beta.data());  // ‖b_c‖ (beta reused as scratch)
  kx_.nrm2_cols(R.data(), nld, k, n_, red.data());
  for (int c = 0; c < k; ++c) {
    ones[c] = S{1};
    const double bnorm = static_cast<double>(beta[c]);
    bref[c] = bnorm > 0.0 ? bnorm : 1.0;
    target[c] = cfg_.rtol * bref[c];
    const double rnorm = static_cast<double>(red[c]);
    if (cfg_.record_history) res[c].history.push_back(rnorm / bref[c]);
    if (!std::isfinite(bnorm) || !std::isfinite(rnorm)) {
      res[c].fail(SolveStatus::kNonFinite, !std::isfinite(bnorm) ? "b" : "rnorm");
      act[c] = 0;
      continue;
    }
    if (rnorm <= target[c]) {
      res[c].mark_converged();
      act[c] = 0;
      continue;
    }
    best[c] = rnorm;
    stall[c] = 0;
    act[c] = 1;
    ++nactive;
  }
  if (nactive == 0) return;

  auto precondition = [&]() {  // Z_c = M⁻¹ R_c for the active columns
    if (nactive == k) {
      m_->apply_many(R.data(), nld, Z.data(), nld, k);
    } else {
      for (int c = 0; c < k; ++c)
        if (act[c]) m_->apply(ccol(R, c), col(Z, c));
    }
  };

  precondition();
  for (int c = 0; c < k; ++c)
    if (act[c]) kx_.copy(ccol(Z, c), col(P, c));
  kx_.dot_cols(R.data(), nld, Z.data(), nld, k, n_, rz.data(), act.data());

  for (int it = 1; it <= cfg_.max_iters && nactive > 0; ++it) {
    if (nactive == k) {
      a_->apply_many(P.data(), nld, Q.data(), nld, k);
    } else {
      for (int c = 0; c < k; ++c)
        if (act[c]) a_->apply(ccol(P, c), col(Q, c));
    }
    kx_.dot_cols(P.data(), nld, Q.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const S pq = red[c];
      if (!(std::abs(static_cast<double>(pq)) > 0.0) ||
          !std::isfinite(static_cast<double>(pq))) {
        res[c].iterations = it;
        res[c].fail(std::isfinite(static_cast<double>(pq)) ? SolveStatus::kBreakdown
                                                           : SolveStatus::kNonFinite,
                    "pivot");
        act[c] = 0;  // breakdown: freeze exactly as solve() returns
        --nactive;
        continue;
      }
      alpha[c] = rz[c] / pq;
      nalpha[c] = -alpha[c];
    }
    // x_c += α_c p_c, r_c −= α_c q_c (frozen columns masked out).
    kx_.axpy_cols(alpha.data(), P.data(), nld, x, ldx, k, n_, act.data());
    kx_.axpy_cols(nalpha.data(), Q.data(), nld, R.data(), nld, k, n_, act.data());
    kx_.nrm2_cols(R.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const double rnorm = static_cast<double>(red[c]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[c]);
      res[c].iterations = it;
      if (!std::isfinite(rnorm)) {
        res[c].fail(SolveStatus::kNonFinite, "rnorm");
        act[c] = 0;
        --nactive;
        continue;
      }
      if (rnorm <= target[c]) {
        res[c].mark_converged();
        act[c] = 0;
        --nactive;
        continue;
      }
      if (cfg_.stagnate_window > 0) {
        if (rnorm < 0.99 * best[c]) {
          best[c] = rnorm;
          stall[c] = 0;
        } else if (++stall[c] >= cfg_.stagnate_window) {
          res[c].fail(SolveStatus::kStagnated, "rnorm");
          act[c] = 0;
          --nactive;
        }
      }
    }
    if (nactive == 0) break;

    // The trailing preconditioner apply and direction update run even on
    // the final iteration, exactly as solve()'s loop body does — keeps
    // invocation counts (and any stateful M) in step with k sequential
    // solves.
    precondition();
    kx_.dot_cols(R.data(), nld, Z.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      beta[c] = red[c] / rz[c];
      rz[c] = red[c];
    }
    // p_c = z_c + β_c p_c.
    kx_.axpby_cols(ones.data(), Z.data(), nld, beta.data(), P.data(), nld, k, n_,
                     act.data());
  }
}

template class CgSolver<double>;
template class CgSolver<float>;

}  // namespace nk
