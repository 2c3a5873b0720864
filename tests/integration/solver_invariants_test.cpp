// Cross-cutting solver invariants, swept over precision configurations and
// preconditioner block counts:
//
//   * determinism — identical runs produce bit-identical iteration counts
//     and solutions (everything in the library is seeded);
//   * block-count robustness — block-Jacobi quality degrades gracefully as
//     blocks shrink, and F3R converges for every partition;
//   * solution agreement — different solver families land on the same x
//     (not just the same residual norm);
//   * restart consistency — an F3R solve interrupted by small m1 and
//     restarted reaches the same accuracy as a single large cycle.
#include <gtest/gtest.h>

#include <tuple>

#include "nkrylov.hpp"
#include "support/solver_checks.hpp"

namespace nk {
namespace {

class BlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockSweep, F3rConvergesForEveryPartition) {
  const int nblocks = GetParam();
  auto p = prepare_standin("hpcg_4_4_4", 1);
  const auto res = Session(p, "f3r@fp16;nblocks=" + std::to_string(nblocks)).solve();
  EXPECT_TRUE(test::converged(res)) << "nblocks=" << nblocks;
  EXPECT_LT(res.final_relres, 1e-8);
}

TEST_P(BlockSweep, MoreBlocksNeverBeatFewerByMuch) {
  // Fewer blocks = stronger M.  CG iteration counts must be monotone-ish:
  // count(nblocks) >= count(1) for every partition.
  const int nblocks = GetParam();
  auto p = prepare_standin("hpcg_4_4_4", 1);
  const auto r1 = Session(p, "cg;nblocks=1").solve();
  const auto rb = Session(p, "cg;nblocks=" + std::to_string(nblocks)).solve();
  ASSERT_TRUE(test::converged(r1));
  ASSERT_TRUE(test::converged(rb));
  EXPECT_GE(rb.iterations + 1, r1.iterations) << "nblocks=" << nblocks;
}

INSTANTIATE_TEST_SUITE_P(Partitions, BlockSweep, ::testing::Values(1, 2, 8, 64, 512));

class PrecisionDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(PrecisionDeterminism, IdenticalRunsAreBitIdentical) {
  const Prec prec = static_cast<Prec>(GetParam());
  auto p = prepare_standin("hpgmp_4_4_4", 1);
  auto run_once = [&] {
    auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=8"), p);
    NestedSolver s(p.a, m, f3r_config(prec));
    std::vector<double> x(p.b.size(), 0.0);
    const auto res = s.solve(std::span<const double>(p.b), std::span<double>(x),
                             f3r_termination(1e-8));
    return std::make_pair(res, x);
  };
  const auto [r1, x1] = run_once();
  const auto [r2, x2] = run_once();
  ASSERT_TRUE(r1.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.precond_invocations, r2.precond_invocations);
  EXPECT_EQ(x1, x2);  // bitwise
}

INSTANTIATE_TEST_SUITE_P(Precisions, PrecisionDeterminism, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           return std::string(prec_name(static_cast<Prec>(info.param)));
                         });

TEST(SolutionAgreement, FamiliesAgreeOnXNotJustResidual) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=8"), p);
  const double tol = 1e-10;

  auto solve_nested = [&](const NestedConfig& cfg) {
    NestedSolver s(p.a, m, cfg);
    std::vector<double> x(p.b.size(), 0.0);
    auto res = s.solve(std::span<const double>(p.b), std::span<double>(x),
                       f3r_termination(tol));
    EXPECT_TRUE(test::converged(res)) << cfg.name;
    return x;
  };
  const auto x_f3r16 = solve_nested(f3r_config(Prec::FP16));
  const auto x_f3r64 = solve_nested(f3r_config(Prec::FP64));

  CsrOperator<double, double> op(p.a->csr_fp64());
  auto h = m->make_apply<double>(Prec::FP64);
  CgSolver<double> cg(op, *h, {.rtol = tol, .max_iters = 10000});
  std::vector<double> x_cg(p.b.size(), 0.0);
  ASSERT_TRUE(test::converged(cg.solve(std::span<const double>(p.b), std::span<double>(x_cg))));

  // The matrix is well conditioned after scaling (27-pt stencil), so a
  // 1e-10 residual pins x to ~1e-9 relative.
  EXPECT_LT(test::max_rel_diff(x_f3r16, x_cg), 1e-7);
  EXPECT_LT(test::max_rel_diff(x_f3r64, x_cg), 1e-7);
  EXPECT_LT(test::max_rel_diff(x_f3r16, x_f3r64), 1e-7);
}

TEST(RestartConsistency, SmallM1WithRestartsReachesSameAccuracy) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=64"), p);

  const auto big = Session(borrow_problem(p), SolverSpec::parse("f3r@fp16"), m).solve();
  F3rParams small_prm;
  small_prm.m1 = 1;  // one outer iteration per cycle: forces restarts
  Termination t = f3r_termination(1e-8);
  t.max_restarts = 60;
  const auto small =
      Session(borrow_problem(p), f3r_config(Prec::FP16, small_prm), t, m).solve();

  ASSERT_TRUE(test::converged(big));
  ASSERT_TRUE(test::converged(small));
  EXPECT_LT(small.final_relres, 1e-8);
  EXPECT_GT(small.restarts, 0);
}

TEST(SeedSensitivity, DifferentRhsSameIterationScale) {
  // Convergence behaviour must be a property of (A, M), not of the RHS:
  // counts across seeds stay within one outer iteration.
  std::vector<int> counts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto p = prepare_standin("hpcg_4_4_4", 1, seed);
    auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=8"), p);
    const auto res = Session(borrow_problem(p), SolverSpec::parse("f3r@fp16"), m).solve();
    ASSERT_TRUE(test::converged(res));
    counts.push_back(res.iterations);
  }
  for (int c : counts) EXPECT_LE(std::abs(c - counts[0]), 1);
}

}  // namespace
}  // namespace nk
