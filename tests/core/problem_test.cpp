// Tests for problem preparation (core/problem.hpp): scaling, the seeded
// right-hand side, and the stand-in catalog lookup.
#include <gtest/gtest.h>

#include "core/problem.hpp"
#include "sparse/gen/laplace.hpp"

namespace nk {
namespace {

TEST(Runner, PrepareProblemScalesAndBuildsRhs) {
  auto p = prepare_problem("t", gen::laplace2d(8, 8), true, 1.2, 1.3, 42);
  EXPECT_EQ(p.name, "t");
  EXPECT_TRUE(p.symmetric);
  EXPECT_DOUBLE_EQ(p.alpha_ilu, 1.2);
  EXPECT_DOUBLE_EQ(p.alpha_ainv, 1.3);
  EXPECT_EQ(p.b.size(), static_cast<std::size_t>(p.a->size()));
  // Diagonal scaling leaves a unit diagonal.
  for (double d : p.a->csr_fp64().diagonal()) EXPECT_NEAR(d, 1.0, 1e-14);
  // RHS in [0,1) (the paper's distribution).
  for (double v : p.b) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Runner, PrepareStandinByName) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  EXPECT_EQ(p.name, "hpcg_4_4_4");
  EXPECT_TRUE(p.symmetric);
  EXPECT_EQ(p.a->size(), 4096);
}

}  // namespace
}  // namespace nk
