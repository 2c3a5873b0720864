#include "krylov/bicgstab.hpp"

#include <cmath>

#include "base/blas_block.hpp"

namespace nk {

template <class VT>
SolveResult BiCgStabSolver<VT>::solve(std::span<const VT> b, std::span<VT> x) {
  using S = acc_t<VT>;
  SolveResult res;
  res.solver = "bicgstab";
  const auto n = b.size();
  std::span<VT> r(r_), rhat(rhat_), p(p_), v(v_), s(s_), t(t_), phat(phat_), shat(shat_);

  const double bnorm = static_cast<double>(kx_.nrm2(b));
  const double bref = bnorm > 0.0 ? bnorm : 1.0;
  const double target = cfg_.rtol * bref;

  a_->residual(b, std::span<const VT>(x.data(), n), r);
  kx_.copy(std::span<const VT>(r_), rhat);
  double rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
  if (cfg_.record_history) res.history.push_back(rnorm / bref);
  if (!std::isfinite(bnorm) || !std::isfinite(rnorm)) {
    res.fail(SolveStatus::kNonFinite, !std::isfinite(bnorm) ? "b" : "rnorm");
    return res;
  }
  if (rnorm <= target) {
    res.mark_converged();
    return res;
  }
  // Stagnation guard state: comparisons only, never touches the iterates.
  double stag_best = rnorm;
  int stall = 0;

  S rho{1}, alpha{1}, omega{1};
  kx_.set_zero(p);
  kx_.set_zero(v);

  for (int it = 1; it <= cfg_.max_iters; ++it) {
    res.iterations = it;
    const S rho_new = kx_.dot(std::span<const VT>(rhat_), std::span<const VT>(r_));
    if (!std::isfinite(static_cast<double>(rho_new)) || rho_new == S{0}) {
      res.fail(std::isfinite(static_cast<double>(rho_new)) ? SolveStatus::kBreakdown
                                                           : SolveStatus::kNonFinite,
               "rho");
      return res;
    }
    if (it == 1) {
      kx_.copy(std::span<const VT>(r_), p);
    } else {
      const S beta = (rho_new / rho) * (alpha / omega);
      // p = r + beta (p - omega v)
      kx_.axpy(-omega, std::span<const VT>(v_), p);
      kx_.axpby(S{1}, std::span<const VT>(r_), beta, p);
    }
    rho = rho_new;

    m_->apply(std::span<const VT>(p_), phat);
    a_->apply(std::span<const VT>(phat_), v);
    const S rhat_v = kx_.dot(std::span<const VT>(rhat_), std::span<const VT>(v_));
    if (!std::isfinite(static_cast<double>(rhat_v)) || rhat_v == S{0}) {
      res.fail(std::isfinite(static_cast<double>(rhat_v)) ? SolveStatus::kBreakdown
                                                          : SolveStatus::kNonFinite,
               "rhat_v");
      return res;
    }
    alpha = rho / rhat_v;

    // s = r - alpha v
    kx_.copy(std::span<const VT>(r_), s);
    kx_.axpy(-alpha, std::span<const VT>(v_), s);
    const double snorm = static_cast<double>(kx_.nrm2(std::span<const VT>(s_)));
    if (snorm <= target) {
      kx_.axpy(alpha, std::span<const VT>(phat_), x);
      if (cfg_.record_history) res.history.push_back(snorm / bref);
      res.mark_converged();
      return res;
    }

    m_->apply(std::span<const VT>(s_), shat);
    a_->apply(std::span<const VT>(shat_), t);
    const S tt = kx_.dot(std::span<const VT>(t_), std::span<const VT>(t_));
    if (!std::isfinite(static_cast<double>(tt)) || tt == S{0}) {
      res.fail(std::isfinite(static_cast<double>(tt)) ? SolveStatus::kBreakdown
                                                      : SolveStatus::kNonFinite,
               "tt");
      return res;
    }
    omega = kx_.dot(std::span<const VT>(t_), std::span<const VT>(s_)) / tt;

    kx_.axpy(alpha, std::span<const VT>(phat_), x);
    kx_.axpy(omega, std::span<const VT>(shat_), x);

    // r = s - omega t
    kx_.copy(std::span<const VT>(s_), r);
    kx_.axpy(-omega, std::span<const VT>(t_), r);

    rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
    if (cfg_.record_history) res.history.push_back(rnorm / bref);
    if (!std::isfinite(rnorm)) {
      res.fail(SolveStatus::kNonFinite, "rnorm");
      return res;
    }
    if (rnorm <= target) {
      res.mark_converged();
      return res;
    }
    if (omega == S{0}) {  // stagnation breakdown
      res.fail(SolveStatus::kBreakdown, "omega");
      return res;
    }
    if (cfg_.stagnate_window > 0) {
      if (rnorm < 0.99 * stag_best) {
        stag_best = rnorm;
        stall = 0;
      } else if (++stall >= cfg_.stagnate_window) {
        res.fail(SolveStatus::kStagnated, "rnorm");
        return res;
      }
    }
  }
  return res;
}

template <class VT>
std::vector<SolveResult> BiCgStabSolver<VT>::solve_many(const VT* b, std::ptrdiff_t ldb,
                                                        VT* x, std::ptrdiff_t ldx, int k,
                                                        int wave) {
  std::vector<SolveResult> res(static_cast<std::size_t>(std::max(k, 0)));
  for (auto& r : res) r.solver = "bicgstab";
  if (k <= 0) return res;
  if (cfg_.compact) {
    solve_many_compact(b, ldb, x, ldx, k, wave, res);
  } else {
    solve_many_masked(b, ldb, x, ldx, k, res);
  }
  return res;
}

// Compacting batched BiCGStab (see CgSolver::solve_many_compact for the
// scheme): survivors occupy the leading `na` columns of the eight panels,
// `map[j]` scatters x updates back to original caller columns, and every
// kernel — the four applications per iteration included — runs at the
// current width.  Retirement swap-removes a slot (data moves verbatim, so
// iterates stay bit-identical to solve()); with 0 < wave < k pending
// right-hand sides refill freed slots at iteration boundaries.
template <class VT>
void BiCgStabSolver<VT>::solve_many_compact(const VT* b, std::ptrdiff_t ldb, VT* x,
                                            std::ptrdiff_t ldx, int k, int wave,
                                            std::vector<SolveResult>& res) {
  using S = acc_t<VT>;
  const int W = (wave > 0 && wave < k) ? wave : k;  // dispatch width
  const std::size_t ww = static_cast<std::size_t>(W);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", ww * n_);
  auto RH = w.get<VT>(key_ + ".bat.rhat", ww * n_);
  auto P = w.get<VT>(key_ + ".bat.p", ww * n_);
  auto V = w.get<VT>(key_ + ".bat.v", ww * n_);
  auto Sv = w.get<VT>(key_ + ".bat.s", ww * n_);
  auto T = w.get<VT>(key_ + ".bat.t", ww * n_);
  auto PH = w.get<VT>(key_ + ".bat.phat", ww * n_);
  auto SH = w.get<VT>(key_ + ".bat.shat", ww * n_);
  auto rho = w.get<S>(key_ + ".bat.rho", ww);
  auto alpha = w.get<S>(key_ + ".bat.alpha", ww);
  auto omega = w.get<S>(key_ + ".bat.omega", ww);
  auto sc0 = w.get<S>(key_ + ".bat.sc0", ww);  // per-slot coefficient scratch
  auto sc1 = w.get<S>(key_ + ".bat.sc1", ww);
  auto red = w.get<S>(key_ + ".bat.red", ww);  // dot/nrm2 results per slot
  auto red2 = w.get<S>(key_ + ".bat.red2", ww);
  auto target = w.get<double>(key_ + ".bat.target", ww);
  auto bref = w.get<double>(key_ + ".bat.bref", ww);
  auto itc = w.get<int>(key_ + ".bat.itc", ww);  // per-column iteration count
  auto map = w.get<int>(key_ + ".bat.map", ww);  // slot → original column
  auto upd = w.get<unsigned char>(key_ + ".bat.upd", ww);  // direction-update mask
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
  auto xcol = [&](int c) {
    return std::span<VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_);
  };
  auto copy_col = [&](std::span<VT> src, std::span<VT> dst, int j) {
    kx_.copy(ccol(src, j), col(dst, j));
  };

  int na = 0;    // live width
  int next = 0;  // head of the pending column queue

  // Initialize original column c into slot j — solve()'s exact preamble
  // sequence.  Returns false when the column converges at iteration 0.
  auto init_slot = [&](int j, int c) -> bool {
    map[j] = c;
    itc[j] = 0;
    kx_.nrm2_cols(b + static_cast<std::ptrdiff_t>(c) * ldb, ldb, 1, n_, &red[j]);
    const double bnorm = static_cast<double>(red[j]);
    if (!std::isfinite(bnorm)) {
      // Poisoned RHS: retire the column before it ever occupies a slot.
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
    copy_col(R, RH, j);
    rho[j] = S{1};
    alpha[j] = S{1};
    omega[j] = S{1};
    kx_.set_zero(col(P, j));
    kx_.set_zero(col(V, j));
    return true;
  };
  auto refill = [&]() {
    while (na < W && next < k)
      if (init_slot(na, next++)) ++na;
  };
  // Swap-remove.  BiCGStab has five mid-pass retirement sites with
  // different panel liveness; moving all eight panels is simpler than
  // tracking which are live where, and retirements are rare.
  auto move_slot = [&](int dst, int src) {
    if (dst == src) return;
    for (auto* blk : {&R, &RH, &P, &V, &Sv, &T, &PH, &SH})
      kx_.copy(ccol(*blk, src), col(*blk, dst));
    rho[dst] = rho[src];
    alpha[dst] = alpha[src];
    omega[dst] = omega[src];
    sc0[dst] = sc0[src];
    sc1[dst] = sc1[src];
    red[dst] = red[src];
    red2[dst] = red2[src];
    target[dst] = target[src];
    bref[dst] = bref[src];
    itc[dst] = itc[src];
    map[dst] = map[src];
    upd[dst] = upd[src];
    best[dst] = best[src];
    stall[dst] = stall[src];
  };

  refill();
  while (na > 0 || next < k) {
    // Iteration boundary: retire exhausted budgets, top the wave back up.
    for (int j = 0; j < na;) {
      if (itc[j] >= cfg_.max_iters) {
        move_slot(j, --na);
      } else {
        ++j;
      }
    }
    refill();
    if (na == 0) break;

    kx_.dot_cols(RH.data(), nld, R.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int it = ++itc[j];
      res[map[j]].iterations = it;
      const S rho_new = red[j];
      if (!std::isfinite(static_cast<double>(rho_new)) || rho_new == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(rho_new))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "rho");
        move_slot(j, --na);
        continue;
      }
      if (it == 1) {
        copy_col(R, P, j);
        upd[j] = 0;
      } else {
        upd[j] = 1;
        sc0[j] = -omega[j];
        sc1[j] = (rho_new / rho[j]) * (alpha[j] / omega[j]);  // beta
      }
      rho[j] = rho_new;
      ++j;
    }
    if (na == 0) continue;
    bool any_upd = false;
    for (int j = 0; j < na; ++j) any_upd = any_upd || upd[j] != 0;
    if (any_upd) {
      // p_j = r_j + beta_j (p_j − omega_j v_j) for slots past iteration 1
      // (freshly injected slots took p = r above, masked out here).
      kx_.axpy_cols(sc0.data(), V.data(), nld, P.data(), nld, na, n_, upd.data());
      for (int j = 0; j < na; ++j) sc0[j] = S{1};
      kx_.axpby_cols(sc0.data(), R.data(), nld, sc1.data(), P.data(), nld, na, n_,
                     upd.data());
    }

    m_->apply_many(P.data(), nld, PH.data(), nld, na);
    a_->apply_many(PH.data(), nld, V.data(), nld, na);
    kx_.dot_cols(RH.data(), nld, V.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const S rhat_v = red[j];
      if (!std::isfinite(static_cast<double>(rhat_v)) || rhat_v == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(rhat_v))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "rhat_v");
        move_slot(j, --na);
        continue;
      }
      alpha[j] = rho[j] / rhat_v;
      sc0[j] = -alpha[j];
      copy_col(R, Sv, j);  // s_j = r_j − alpha_j v_j …
      ++j;
    }
    if (na == 0) continue;
    kx_.axpy_cols(sc0.data(), V.data(), nld, Sv.data(), nld, na, n_);
    kx_.nrm2_cols(Sv.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const double snorm = static_cast<double>(red[j]);
      if (snorm <= target[j]) {
        const int c = map[j];
        kx_.axpy(alpha[j], ccol(PH, j), xcol(c));  // x_c += alpha_j phat_j
        if (cfg_.record_history) res[c].history.push_back(snorm / bref[j]);
        res[c].mark_converged();
        move_slot(j, --na);
        continue;
      }
      ++j;
    }
    if (na == 0) continue;

    m_->apply_many(Sv.data(), nld, SH.data(), nld, na);
    a_->apply_many(SH.data(), nld, T.data(), nld, na);
    kx_.dot_cols(T.data(), nld, T.data(), nld, na, n_, red.data());
    kx_.dot_cols(T.data(), nld, Sv.data(), nld, na, n_, red2.data());
    for (int j = 0; j < na;) {
      const S tt = red[j];
      if (!std::isfinite(static_cast<double>(tt)) || tt == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(tt))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "tt");
        move_slot(j, --na);
        continue;
      }
      omega[j] = red2[j] / tt;
      sc0[j] = -omega[j];
      ++j;
    }
    if (na == 0) continue;
    // x_{map[j]} += alpha_j phat_j + omega_j shat_j (two chained scattered
    // updates, as in solve()); then r_j = s_j − omega_j t_j.
    kx_.axpy_cols(alpha.data(), PH.data(), nld, x, ldx, na, n_, nullptr, map.data());
    kx_.axpy_cols(omega.data(), SH.data(), nld, x, ldx, na, n_, nullptr, map.data());
    for (int j = 0; j < na; ++j) copy_col(Sv, R, j);
    kx_.axpy_cols(sc0.data(), T.data(), nld, R.data(), nld, na, n_);
    kx_.nrm2_cols(R.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int c = map[j];
      const double rnorm = static_cast<double>(red[j]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
      if (!std::isfinite(rnorm)) {
        res[c].fail(SolveStatus::kNonFinite, "rnorm");
        move_slot(j, --na);
        continue;
      }
      if (rnorm <= target[j]) {
        res[c].mark_converged();
        move_slot(j, --na);
        continue;
      }
      if (omega[j] == S{0}) {  // stagnation breakdown
        res[c].fail(SolveStatus::kBreakdown, "omega");
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
  }
}

// Masked lockstep batched BiCGStab — the PR 3 reference path (cfg.compact
// = false), mirroring solve() per column.  Every per-column scalar
// recurrence and element-local update matches solve() exactly; the four
// applications per iteration (M·p, A·phat, M·s, A·shat) run batched while
// all columns are live, so each streams the matrix/factors once for the
// whole batch.
template <class VT>
void BiCgStabSolver<VT>::solve_many_masked(const VT* b, std::ptrdiff_t ldb, VT* x,
                                           std::ptrdiff_t ldx, int k,
                                           std::vector<SolveResult>& res) {
  using S = acc_t<VT>;
  const std::size_t kk = static_cast<std::size_t>(k);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", kk * n_);
  auto RH = w.get<VT>(key_ + ".bat.rhat", kk * n_);
  auto P = w.get<VT>(key_ + ".bat.p", kk * n_);
  auto V = w.get<VT>(key_ + ".bat.v", kk * n_);
  auto Sv = w.get<VT>(key_ + ".bat.s", kk * n_);
  auto T = w.get<VT>(key_ + ".bat.t", kk * n_);
  auto PH = w.get<VT>(key_ + ".bat.phat", kk * n_);
  auto SH = w.get<VT>(key_ + ".bat.shat", kk * n_);
  auto rho = w.get<S>(key_ + ".bat.rho", kk);
  auto alpha = w.get<S>(key_ + ".bat.alpha", kk);
  auto omega = w.get<S>(key_ + ".bat.omega", kk);
  auto sc0 = w.get<S>(key_ + ".bat.sc0", kk);  // per-column coefficient scratch
  auto sc1 = w.get<S>(key_ + ".bat.sc1", kk);
  auto red = w.get<S>(key_ + ".bat.red", kk);  // dot/nrm2 results per column
  auto red2 = w.get<S>(key_ + ".bat.red2", kk);
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
  auto xcol = [&](int c) {
    return std::span<VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_);
  };

  // nrm2_cols / dot_cols reproduce solve()'s single-threaded blas1
  // reductions bit-for-bit with the column chains interleaved for ILP.
  int nactive = 0;
  a_->residual_many(b, ldb, x, ldx, R.data(), nld, k);
  kx_.nrm2_cols(b, ldb, k, n_, red.data());
  kx_.nrm2_cols(R.data(), nld, k, n_, red2.data());
  for (int c = 0; c < k; ++c) {
    const double bnorm = static_cast<double>(red[c]);
    bref[c] = bnorm > 0.0 ? bnorm : 1.0;
    target[c] = cfg_.rtol * bref[c];
    kx_.copy(ccol(R, c), col(RH, c));
    const double rnorm = static_cast<double>(red2[c]);
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
    rho[c] = S{1};
    alpha[c] = S{1};
    omega[c] = S{1};
    kx_.set_zero(col(P, c));
    kx_.set_zero(col(V, c));
    act[c] = 1;
    ++nactive;
  }

  auto batched_apply = [&](auto&& one, auto&& many, std::span<VT> in, std::span<VT> out) {
    if (nactive == k) {
      many(in.data(), out.data());
    } else {
      for (int c = 0; c < k; ++c)
        if (act[c]) one(ccol(in, c), col(out, c));
    }
  };
  auto m_apply = [&](std::span<VT> in, std::span<VT> out) {
    batched_apply([&](auto r, auto z) { m_->apply(r, z); },
                  [&](const VT* r, VT* z) { m_->apply_many(r, nld, z, nld, k); }, in, out);
  };
  auto a_apply = [&](std::span<VT> in, std::span<VT> out) {
    batched_apply([&](auto r, auto z) { a_->apply(r, z); },
                  [&](const VT* r, VT* z) { a_->apply_many(r, nld, z, nld, k); }, in, out);
  };

  for (int it = 1; it <= cfg_.max_iters && nactive > 0; ++it) {
    kx_.dot_cols(RH.data(), nld, R.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      res[c].iterations = it;
      const S rho_new = red[c];
      if (!std::isfinite(static_cast<double>(rho_new)) || rho_new == S{0}) {
        res[c].fail(std::isfinite(static_cast<double>(rho_new))
                        ? SolveStatus::kBreakdown
                        : SolveStatus::kNonFinite,
                    "rho");
        act[c] = 0;
        --nactive;
        continue;
      }
      if (it == 1) {
        kx_.copy(ccol(R, c), col(P, c));
        sc0[c] = S{0};  // no direction update on the first iteration
      } else {
        sc0[c] = -omega[c];
        sc1[c] = (rho_new / rho[c]) * (alpha[c] / omega[c]);  // beta
      }
      rho[c] = rho_new;
    }
    if (it > 1) {
      // p_c = r_c + beta_c (p_c − omega_c v_c), masked per column.
      kx_.axpy_cols(sc0.data(), V.data(), nld, P.data(), nld, k, n_, act.data());
      for (int c = 0; c < k; ++c) sc0[c] = S{1};
      kx_.axpby_cols(sc0.data(), R.data(), nld, sc1.data(), P.data(), nld, k, n_,
                       act.data());
    }

    m_apply(P, PH);
    a_apply(PH, V);
    kx_.dot_cols(RH.data(), nld, V.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const S rhat_v = red[c];
      if (!std::isfinite(static_cast<double>(rhat_v)) || rhat_v == S{0}) {
        res[c].fail(std::isfinite(static_cast<double>(rhat_v))
                        ? SolveStatus::kBreakdown
                        : SolveStatus::kNonFinite,
                    "rhat_v");
        act[c] = 0;
        --nactive;
        continue;
      }
      alpha[c] = rho[c] / rhat_v;
      sc0[c] = -alpha[c];
      // s_c = r_c − alpha_c v_c
      kx_.copy(ccol(R, c), col(Sv, c));
    }
    kx_.axpy_cols(sc0.data(), V.data(), nld, Sv.data(), nld, k, n_, act.data());
    kx_.nrm2_cols(Sv.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const double snorm = static_cast<double>(red[c]);
      if (snorm <= target[c]) {
        kx_.axpy(alpha[c], ccol(PH, c), xcol(c));
        if (cfg_.record_history) res[c].history.push_back(snorm / bref[c]);
        res[c].mark_converged();
        act[c] = 0;
        --nactive;
      }
    }
    if (nactive == 0) break;

    m_apply(Sv, SH);
    a_apply(SH, T);
    kx_.dot_cols(T.data(), nld, T.data(), nld, k, n_, red.data(), act.data());
    kx_.dot_cols(T.data(), nld, Sv.data(), nld, k, n_, red2.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const S tt = red[c];
      if (!std::isfinite(static_cast<double>(tt)) || tt == S{0}) {
        res[c].fail(std::isfinite(static_cast<double>(tt)) ? SolveStatus::kBreakdown
                                                           : SolveStatus::kNonFinite,
                    "tt");
        act[c] = 0;
        --nactive;
        sc0[c] = S{0};
        sc1[c] = S{0};
        continue;
      }
      omega[c] = red2[c] / tt;
      sc0[c] = -omega[c];
      sc1[c] = S{1};
    }
    // x_c += alpha_c phat_c + omega_c shat_c (two chained updates, as in
    // solve()); then r_c = s_c − omega_c t_c.
    kx_.axpy_cols(alpha.data(), PH.data(), nld, x, ldx, k, n_, act.data());
    kx_.axpy_cols(omega.data(), SH.data(), nld, x, ldx, k, n_, act.data());
    for (int c = 0; c < k; ++c)
      if (act[c]) kx_.copy(ccol(Sv, c), col(R, c));
    kx_.axpy_cols(sc0.data(), T.data(), nld, R.data(), nld, k, n_, act.data());
    kx_.nrm2_cols(R.data(), nld, k, n_, red.data(), act.data());
    for (int c = 0; c < k; ++c) {
      if (!act[c]) continue;
      const double rnorm = static_cast<double>(red[c]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[c]);
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
      if (omega[c] == S{0}) {  // stagnation breakdown
        res[c].fail(SolveStatus::kBreakdown, "omega");
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
  }
}

template class BiCgStabSolver<double>;
template class BiCgStabSolver<float>;

}  // namespace nk
