// Tests for the nested-solver framework: MultiPrecMatrix, precision
// bridges, configuration validation, and end-to-end nested solves.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "core/f3r.hpp"
#include "core/nested_builder.hpp"
#include "core/session.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

std::shared_ptr<MultiPrecMatrix> small_matrix(bool sell = false) {
  auto a = gen::laplace2d(10, 10);
  diagonal_scale_symmetric(a);
  return std::make_shared<MultiPrecMatrix>(std::move(a), sell);
}

TEST(MultiPrecMatrix, LazyCopiesTrackedByValueBytes) {
  auto a = small_matrix();
  const std::size_t base = a->value_bytes();
  EXPECT_EQ(base, a->csr_fp64().vals.size() * 8);
  auto op32 = a->make_operator<float>(Prec::FP32);
  EXPECT_EQ(a->value_bytes(), base + a->csr_fp64().vals.size() * 4);
  auto op16 = a->make_operator<half>(Prec::FP16);
  EXPECT_EQ(a->value_bytes(), base + a->csr_fp64().vals.size() * 6);
  // Re-requesting does not duplicate.
  auto op16b = a->make_operator<float>(Prec::FP16);
  EXPECT_EQ(a->value_bytes(), base + a->csr_fp64().vals.size() * 6);
}

TEST(MultiPrecMatrix, OperatorsComputeSameProduct) {
  auto a = small_matrix();
  const index_t n = a->size();
  const auto xd = random_vector<double>(n, 1, 0.0, 1.0);
  std::vector<double> y64(n);
  auto op64 = a->make_operator<double>(Prec::FP64);
  op64->apply(std::span<const double>(xd), std::span<double>(y64));

  auto op16 = a->make_operator<float>(Prec::FP16);
  const auto xf = converted<float>(xd);
  std::vector<float> y16(n);
  op16->apply(std::span<const float>(xf), std::span<float>(y16));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y16[i], y64[i], 2e-2);
  EXPECT_EQ(op64->spmv_count(), 1u);
}

TEST(MultiPrecMatrix, SellVariantMatchesCsr) {
  auto ac = small_matrix(false);
  auto as = small_matrix(true);
  EXPECT_FALSE(ac->uses_sell());
  EXPECT_TRUE(as->uses_sell());
  const index_t n = ac->size();
  const auto x = random_vector<double>(n, 2, 0.0, 1.0);
  std::vector<double> yc(n), ys(n);
  ac->make_operator<double>(Prec::FP64)->apply(std::span<const double>(x), std::span<double>(yc));
  as->make_operator<double>(Prec::FP64)->apply(std::span<const double>(x), std::span<double>(ys));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yc[i], 1e-12);
}

TEST(MultiPrecMatrix, RejectsRectangular) {
  CsrMatrix<double> r(2, 3);
  r.row_ptr = {0, 0, 0};
  EXPECT_THROW(MultiPrecMatrix(std::move(r)), std::invalid_argument);
}

TEST(PrecisionBridge, RoundTripsThroughLowerPrecision) {
  // Bridge double→float over an inner identity: output is the fp32-rounded
  // input.
  IdentityPrecond<float> inner(4);
  PrecisionBridge<double, float> bridge(&inner);
  std::vector<double> r = {1.0 + 1e-12, 2.0, -3.5, 0.1};
  std::vector<double> z(4);
  bridge.apply(std::span<const double>(r), std::span<double>(z));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(z[i], static_cast<double>(static_cast<float>(r[i])));
  EXPECT_EQ(bridge.size(), 4);
}

TEST(Validation, RejectsBadConfigs) {
  NestedConfig cfg;
  EXPECT_THROW(validate(cfg), std::invalid_argument);  // empty

  cfg = f3r_config(Prec::FP16);
  cfg.levels[0].vec = Prec::FP32;  // outermost must be fp64
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[0].kind = SolverKind::Richardson;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[2].m = 0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[3].cycle = 0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  EXPECT_NO_THROW(validate(f3r_config(Prec::FP16)));
}

TEST(TupleNotation, MatchesPaperString) {
  EXPECT_EQ(tuple_notation(f3r_config(Prec::FP16)), "(F^100, F^8, F^4, R^2, M)");
}

class NestedSolveAllPrecisions : public ::testing::TestWithParam<Prec> {};

TEST_P(NestedSolveAllPrecisions, F3rSolvesSmallLaplacian) {
  auto a = gen::laplace2d(16, 16);
  auto p = prepare_problem("lap", std::move(a), true, 1.0, 1.0, 11);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  const auto spec = SolverSpec::parse("f3r@" + std::string(prec_name(GetParam())));
  const auto res = Session(borrow_problem(p), spec, m).solve();
  EXPECT_TRUE(res.converged) << prec_name(GetParam());
  EXPECT_LT(res.final_relres, 1e-8);
  EXPECT_GT(res.precond_invocations, 0u);
  // F3R applies M in multiples of m2·m3·m4 = 64 per outer iteration.
  EXPECT_EQ(res.precond_invocations % 64, 0u);
}

INSTANTIATE_TEST_SUITE_P(Precisions, NestedSolveAllPrecisions,
                         ::testing::Values(Prec::FP64, Prec::FP32, Prec::FP16),
                         [](const auto& info) { return prec_name(info.param); });

TEST(NestedSolver, SolutionMatchesDirectKrylov) {
  auto a = gen::hpcg(3, 3, 3);
  auto p = prepare_problem("hpcg", std::move(a), true, 1.0, 1.0, 3);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  const auto res =
      Session(borrow_problem(p), SolverSpec::parse("f3r@fp16;rtol=1e-10"), m).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_relres, 1e-10);  // true fp64 residual, not an estimate
}

TEST(NestedSolver, RichardsonWeightProbes) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 4);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=1"), p);
  NestedSolver s(p.a, m, f3r_config(Prec::FP16));
  const auto w0 = s.richardson_weights();
  ASSERT_EQ(w0.size(), 2u);  // m4 = 2 weights
  EXPECT_FLOAT_EQ(w0[0], 1.0f);

  std::vector<double> x(p.b.size(), 0.0);
  s.solve(std::span<const double>(p.b), std::span<double>(x), f3r_termination(1e-8));
  const auto w1 = s.richardson_weights();
  // ≥ 64 Richardson invocations happened → at least one ω update.
  EXPECT_NE(w1[0], 1.0f);

  s.reset_state();
  EXPECT_FLOAT_EQ(s.richardson_weights()[0], 1.0f);
}

TEST(NestedSolver, RestartsCountedAndCapped) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 5);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=1"), p);
  // Tiny outer dimension + impossible tolerance → exhausts all restarts.
  F3rParams prm;
  prm.m1 = 2;
  auto cfg = f3r_config(Prec::FP64, prm);
  NestedSolver s(p.a, m, cfg);
  Termination t;
  t.rtol = 1e-300;
  t.max_restarts = 2;
  std::vector<double> x(p.b.size(), 0.0);
  const auto res = s.solve(std::span<const double>(p.b), std::span<double>(x), t);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.restarts, 2);
  // 3 cycles × m1=2, minus possible lucky-breakdown early exits when the
  // inner pipeline solves the correction (nearly) exactly.
  EXPECT_GE(res.iterations, 3);
  EXPECT_LE(res.iterations, 6);
}

TEST(NestedSolver, HistoryRecordsOuterEstimates) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 6);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  NestedSolver s(p.a, m, f3r_config(Prec::FP32));
  Termination t = f3r_termination(1e-8);
  std::vector<double> x(p.b.size(), 0.0);
  const auto res = s.solve(std::span<const double>(p.b), std::span<double>(x), t);
  ASSERT_EQ(static_cast<int>(res.history.size()), res.iterations);
  EXPECT_LE(res.history.back(), 1e-8 * 1.01);

  t.record_history = false;
  std::vector<double> x2(p.b.size(), 0.0);
  EXPECT_TRUE(s.solve(std::span<const double>(p.b), std::span<double>(x2), t).history.empty());
}

TEST(NestedSolver, MismatchedPrecondRejected) {
  auto p = prepare_problem("lap", gen::laplace2d(8, 8), true, 1.0, 1.0, 7);
  auto p2 = prepare_problem("lap2", gen::laplace2d(4, 4), true, 1.0, 1.0, 7);
  auto m_small = registry().make_precond(PrecondSpec::parse("bj;nblocks=1"), p2);
  EXPECT_THROW(NestedSolver(p.a, m_small, f3r_config(Prec::FP64)), std::invalid_argument);
}

TEST(NestedSolver, TwoLevelConfigWorks) {
  // Minimal nesting: (F^50, R^2, M) — Richardson directly under the outer.
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 8);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  NestedConfig cfg;
  cfg.name = "F-R";
  LevelSpec outer;
  outer.m = 50;
  LevelSpec rich;
  rich.kind = SolverKind::Richardson;
  rich.m = 2;
  rich.mat = Prec::FP64;
  rich.vec = Prec::FP64;
  cfg.levels = {outer, rich};
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(res.converged);
}

TEST(NestedSolver, SingleLevelIsPlainFgmres) {
  // (F^100, M): degenerate nesting = preconditioned FGMRES.
  auto p = prepare_problem("lap", gen::laplace2d(10, 10), true, 1.0, 1.0, 9);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  NestedConfig cfg;
  cfg.name = "flat";
  LevelSpec outer;
  outer.m = 100;
  cfg.levels = {outer};
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.precond_invocations, static_cast<std::uint64_t>(res.iterations));
}

TEST(NestedSolver, SpmvCountCoversEveryLevel) {
  // Each Richardson call does m4 M-applies and m4 - 1 residual SpMVs, and
  // each third-level FGMRES iteration adds one more, so fp16-F3R performs
  // at least one SpMV per M-apply.
  auto p = prepare_problem("lap", gen::laplace2d(16, 16), true, 1.0, 1.0, 12);
  const auto res = Session(p, "f3r@fp16;nblocks=2").solve();
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.spmv_count, res.precond_invocations);
}

TEST(NestedSolver, SpmvCountMatchesTheTuple) {
  // (F^m1, F^m2, F^m3, R^m4, M) with fixed weights and full inner
  // iterations: each outer iteration costs 1 + m2·(1 + m3·m4) SpMVs, and
  // every restart cycle after the first adds one outer residual SpMV.
  auto p = prepare_problem("lap", gen::laplace2d(16, 16), true, 1.0, 1.0, 13);
  auto m = registry().make_precond(PrecondSpec::parse("jacobi"), p);
  F3rParams prm;
  prm.m1 = 1;  // one outer iteration per cycle: forces restarts
  prm.adaptive = false;
  const std::uint64_t per_outer = 1 + prm.m2 * (1 + prm.m3 * prm.m4);
  const auto res =
      Session(borrow_problem(p), f3r_config(Prec::FP16, prm), f3r_termination(), m).solve();
  ASSERT_GT(res.restarts, 0);
  EXPECT_EQ(res.spmv_count, res.iterations * per_outer + res.restarts);

  // Adaptive weights add m4 fp32 SpMVs on every c-th Richardson call.
  prm.adaptive = true;
  prm.cycle = 4;
  const auto ada =
      Session(borrow_problem(p), f3r_config(Prec::FP16, prm), f3r_termination(), m).solve();
  const std::uint64_t richardson_calls = ada.iterations * prm.m2 * prm.m3;
  EXPECT_EQ(ada.spmv_count, ada.iterations * per_outer + ada.restarts +
                                prm.m4 * (richardson_calls / prm.cycle));
}

TEST(NestedSolver, GpuSimSellConfiguration) {
  // SELL storage + SD-AINV: the Figure 2 configuration.
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 10, /*use_sell=*/true);
  auto m = registry().make_precond(PrecondSpec::parse("sd-ainv"), p);
  const auto res = Session(borrow_problem(p), SolverSpec::parse("f3r@fp16"), m).solve();
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace nk
