// Tests that the F3R factory reproduces Table 1 exactly, and the
// fp16-F3R-best parameter search.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/cost_model.hpp"
#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "sparse/gen/laplace.hpp"

namespace nk {
namespace {

TEST(F3rConfig, DefaultParametersMatchPaper) {
  const F3rParams p;
  EXPECT_EQ(p.m1, 100);
  EXPECT_EQ(p.m2, 8);
  EXPECT_EQ(p.m3, 4);
  EXPECT_EQ(p.m4, 2);
  EXPECT_EQ(p.cycle, 64);
  EXPECT_TRUE(p.adaptive);
}

TEST(F3rConfig, Fp16MatchesTable1) {
  const auto cfg = f3r_config(Prec::FP16);
  ASSERT_EQ(cfg.levels.size(), 4u);
  EXPECT_EQ(cfg.name, "fp16-F3R");

  // F^m1: A fp64, vectors fp64.
  EXPECT_EQ(cfg.levels[0].kind, SolverKind::FGMRES);
  EXPECT_EQ(cfg.levels[0].m, 100);
  EXPECT_EQ(cfg.levels[0].mat, Prec::FP64);
  EXPECT_EQ(cfg.levels[0].vec, Prec::FP64);

  // F^m2: A fp32, vectors fp32.
  EXPECT_EQ(cfg.levels[1].m, 8);
  EXPECT_EQ(cfg.levels[1].mat, Prec::FP32);
  EXPECT_EQ(cfg.levels[1].vec, Prec::FP32);

  // F^m3: A fp16, vectors fp32 ("F^m3 performs SpMV in fp32 because A is
  // stored in fp16 while the input Arnoldi basis is in fp32").
  EXPECT_EQ(cfg.levels[2].m, 4);
  EXPECT_EQ(cfg.levels[2].mat, Prec::FP16);
  EXPECT_EQ(cfg.levels[2].vec, Prec::FP32);

  // R^m4: everything fp16 including M.
  EXPECT_EQ(cfg.levels[3].kind, SolverKind::Richardson);
  EXPECT_EQ(cfg.levels[3].m, 2);
  EXPECT_EQ(cfg.levels[3].mat, Prec::FP16);
  EXPECT_EQ(cfg.levels[3].vec, Prec::FP16);
  EXPECT_EQ(cfg.levels[3].cycle, 64);
  EXPECT_EQ(cfg.precond_storage, Prec::FP16);
}

TEST(F3rConfig, Fp64AllLevelsDouble) {
  const auto cfg = f3r_config(Prec::FP64);
  EXPECT_EQ(cfg.name, "fp64-F3R");
  for (const auto& lv : cfg.levels) {
    EXPECT_EQ(lv.mat, Prec::FP64);
    EXPECT_EQ(lv.vec, Prec::FP64);
  }
  EXPECT_EQ(cfg.precond_storage, Prec::FP64);
}

TEST(F3rConfig, Fp32InnerLevelsSingle) {
  // "the latter use fp32 for all the inner solvers"
  const auto cfg = f3r_config(Prec::FP32);
  EXPECT_EQ(cfg.name, "fp32-F3R");
  EXPECT_EQ(cfg.levels[0].vec, Prec::FP64);  // outermost stays fp64
  for (std::size_t d = 1; d < cfg.levels.size(); ++d) {
    EXPECT_EQ(cfg.levels[d].mat, Prec::FP32);
    EXPECT_EQ(cfg.levels[d].vec, Prec::FP32);
  }
  EXPECT_EQ(cfg.precond_storage, Prec::FP32);
}

TEST(F3rConfig, CustomParametersPropagate) {
  F3rParams p;
  p.m1 = 50;
  p.m2 = 6;
  p.m3 = 5;
  p.m4 = 3;
  p.cycle = 16;
  p.adaptive = false;
  p.fixed_weight = 0.9f;
  const auto cfg = f3r_config(Prec::FP16, p);
  EXPECT_EQ(cfg.levels[0].m, 50);
  EXPECT_EQ(cfg.levels[1].m, 6);
  EXPECT_EQ(cfg.levels[2].m, 5);
  EXPECT_EQ(cfg.levels[3].m, 3);
  EXPECT_EQ(cfg.levels[3].cycle, 16);
  EXPECT_FALSE(cfg.levels[3].adaptive);
  EXPECT_FLOAT_EQ(cfg.levels[3].fixed_weight, 0.9f);
}

TEST(F3rConfig, Names) {
  EXPECT_EQ(f3r_name(Prec::FP64), "fp64-F3R");
  EXPECT_EQ(f3r_name(Prec::FP32), "fp32-F3R");
  EXPECT_EQ(f3r_name(Prec::FP16), "fp16-F3R");
}

TEST(F3rConfig, TerminationMatchesPaper) {
  const auto t = f3r_termination();
  EXPECT_DOUBLE_EQ(t.rtol, 1e-8);
  EXPECT_EQ(t.max_restarts, 3);  // 300 outermost iterations total
}

TEST(F3rConfig, ValidatesCleanly) {
  for (Prec p : {Prec::FP64, Prec::FP32, Prec::FP16})
    EXPECT_NO_THROW(validate(f3r_config(p)));
}

std::shared_ptr<PrimaryPrecond> bj2(const PreparedProblem& p) {
  return registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
}

TEST(Runner, F3rBestSearchReturnsConvergedConfig) {
  auto p = prepare_problem("s", gen::laplace2d(10, 10), true, 1.0, 1.0, 7);
  auto m = bj2(p);
  const auto best = run_f3r_best(p, m, 1e-8, 4);
  EXPECT_EQ(best.tried, 4);
  EXPECT_TRUE(best.result.converged);
  EXPECT_EQ(best.result.solver, "fp16-F3R-best");
  // Label has the paper's m2-m3-m4 form.
  EXPECT_EQ(std::count(best.param_label.begin(), best.param_label.end(), '-'), 2);
}

TEST(Runner, F3rBestZeroBudgetTriesNothing) {
  auto p = prepare_problem("s", gen::laplace2d(8, 8), true, 1.0, 1.0, 8);
  auto m = bj2(p);
  const auto best = run_f3r_best(p, m, 1e-8, 0);
  EXPECT_EQ(best.tried, 0);
  EXPECT_FALSE(best.result.converged);
  EXPECT_EQ(best.param_label, "-");
}

TEST(Runner, F3rBestBudgetCappedByParameterBoxSize) {
  // The box is m2 ∈ {6..10} × m3 ∈ {2..6} × m4 ∈ {1,2} = 50 candidates;
  // an oversized budget must stop there.
  auto p = prepare_problem("s", gen::laplace2d(8, 8), true, 1.0, 1.0, 9);
  auto m = bj2(p);
  const auto best = run_f3r_best(p, m, 1e-6, 10000);
  EXPECT_EQ(best.tried, 50);
  EXPECT_TRUE(best.result.converged);
}

TEST(Runner, F3rBestOrdersCandidatesByMemoryAccessModel) {
  // With budget 1 exactly the model-cheapest configuration is tried, so on
  // an easy problem it is also the one returned.  Recompute the model's
  // argmin independently and compare.
  auto p = prepare_problem("s", gen::laplace2d(10, 10), true, 1.0, 1.0, 10);
  auto m = bj2(p);
  const auto best = run_f3r_best(p, m, 1e-8, 1);
  ASSERT_EQ(best.tried, 1);
  ASSERT_TRUE(best.result.converged);

  const double ca = access_constant(p.a->csr_fp64().nnz_per_row(), 2);
  double min_cost = std::numeric_limits<double>::max();
  int e2 = 0, e3 = 0, e4 = 0;
  for (int m2 = 6; m2 <= 10; ++m2)
    for (int m3 = 2; m3 <= 6; ++m3)
      for (int m4 = 1; m4 <= 2; ++m4) {
        const double c = cost_nested(ca, ca, {{'F', m2}, {'F', m3}, {'R', m4}});
        if (c < min_cost) {
          min_cost = c;
          e2 = m2;
          e3 = m3;
          e4 = m4;
        }
      }
  EXPECT_EQ(best.params.m2, e2);
  EXPECT_EQ(best.params.m3, e3);
  EXPECT_EQ(best.params.m4, e4);
  EXPECT_EQ(best.param_label, std::to_string(e2) + "-" + std::to_string(e3) + "-" +
                                  std::to_string(e4));
}

TEST(Runner, F3rBestSkipsNonConvergedCandidates) {
  // An unreachable tolerance: every candidate fails, the search reports
  // the whole budget as tried and returns a non-converged placeholder.
  auto p = prepare_problem("s", gen::laplace2d(6, 6), true, 1.0, 1.0, 11);
  auto m = bj2(p);
  const auto best = run_f3r_best(p, m, 1e-300, 2);
  EXPECT_EQ(best.tried, 2);
  EXPECT_FALSE(best.result.converged);
  EXPECT_EQ(best.param_label, "-");
  EXPECT_EQ(best.result.solver, "fp16-F3R-best");
}

}  // namespace
}  // namespace nk
