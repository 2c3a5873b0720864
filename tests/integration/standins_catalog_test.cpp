// Full-catalog sweep: every Table 2 stand-in generates, validates, matches
// its declared symmetry, survives diagonal scaling into fp16 range, and
// admits its designated preconditioner without fatal breakdown.
#include <gtest/gtest.h>

#include "nkrylov.hpp"

namespace nk {
namespace {

class CatalogSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CatalogSweep, GeneratesValidatesAndScales) {
  const auto prob = gen::make_problem(GetParam(), 1);
  prob.a.validate();
  EXPECT_TRUE(prob.a.rows_sorted());
  EXPECT_GT(prob.a.nrows, 1000) << "stand-ins must be nontrivial";
  EXPECT_EQ(is_symmetric(prob.a, 1e-10), prob.spec.symmetric);

  auto scaled = prob.a;
  const auto sres = diagonal_scale_symmetric(scaled);
  EXPECT_FALSE(sres.had_zero_diagonal);
  const auto stats = analyze(scaled);
  // Scaling must put every value inside binary16 range (the property fp16
  // storage depends on).
  EXPECT_EQ(stats.fp16_overflow_fraction, 0.0);
  EXPECT_TRUE(stats.has_full_diagonal);
}

TEST_P(CatalogSweep, PrimaryPreconditionerConstructsWithoutFatalBreakdown) {
  auto p = prepare_standin(GetParam(), 1);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=32"), p);
  // Apply once at every storage precision; outputs must be finite.
  const auto r = random_vector<double>(p.b.size(), 3, 0.0, 1.0);
  for (Prec st : {Prec::FP64, Prec::FP32, Prec::FP16}) {
    auto h = m->make_apply<double>(st);
    std::vector<double> z(p.b.size());
    h->apply(std::span<const double>(r), std::span<double>(z));
    EXPECT_EQ(blas::count_nonfinite(std::span<const double>(z)), 0u)
        << GetParam() << " " << prec_name(st);
  }
}

// Sweep a representative subset covering every structure class (the full
// 30-matrix sweep lives in bench_matrices; tests keep runtime bounded).
INSTANTIATE_TEST_SUITE_P(Classes, CatalogSweep,
                         ::testing::Values("ecology2",      // 2-D 5-pt SPD
                                           "thermal2",      // anisotropic SPD
                                           "audikw_1",      // block elasticity SPD
                                           "hpcg_4_4_4",    // exact HPCG
                                           "hpgmp_4_4_4",   // exact HPGMP
                                           "atmosmodd",     // convection-diffusion
                                           "tmt_unsym",     // 2-D nonsymmetric
                                           "ss",            // hard skewed
                                           "Freescale1"),   // circuit graph
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

}  // namespace
}  // namespace nk
