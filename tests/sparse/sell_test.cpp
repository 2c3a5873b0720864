// Tests for the sliced-ELLPACK format: structural invariants and SpMV
// equivalence with CSR across chunk sizes and value types.
#include <gtest/gtest.h>

#include <tuple>

#include "base/rng.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

TEST(Sell, StructureOfSmallConversion) {
  // 3 rows with 1, 3, 2 entries; chunk 2 → slice 0 width 3, slice 1 width 2.
  CsrMatrix<double> a(3, 3);
  a.row_ptr = {0, 1, 4, 6};
  a.col_idx = {0, 0, 1, 2, 1, 2};
  a.vals = {1, 2, 3, 4, 5, 6};
  const auto s = csr_to_sell(a, 2);
  EXPECT_EQ(s.nslices(), 2);
  EXPECT_EQ(s.slice_width[0], 3);
  EXPECT_EQ(s.slice_width[1], 2);
  EXPECT_EQ(s.slice_ptr[1], 6);       // 3 × 2 lanes
  EXPECT_EQ(s.padded_nnz(), 10u);     // 6 + 4
  EXPECT_DOUBLE_EQ(sell_pad_ratio(s, a.nnz()), 10.0 / 6.0);
}

TEST(Sell, PaddingValuesAreZero) {
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 2, 3};
  a.col_idx = {0, 1, 1};
  a.vals = {1, 2, 3};
  const auto s = csr_to_sell(a, 2);
  // Row 1 (lane 1) has width-2 slice with 1 real entry: one pad with v=0.
  int zeros = 0;
  for (double v : s.vals)
    if (v == 0.0) ++zeros;
  EXPECT_EQ(zeros, 1);
}

class SellEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SellEquivalence, SpmvMatchesCsr) {
  const auto [n, chunk] = GetParam();
  gen::RandomOptions opt;
  opt.n = n;
  opt.seed = 31 + static_cast<std::uint64_t>(chunk);
  const auto a = gen::random_sparse(opt);
  const auto s = csr_to_sell(a, chunk);
  const auto x = random_vector<double>(n, 17, -1.0, 1.0);

  std::vector<double> yc(n), ys(n);
  spmv(a, std::span<const double>(x), std::span<double>(yc));
  spmv(s, std::span<const double>(x), std::span<double>(ys));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yc[i], 1e-12);
}

TEST_P(SellEquivalence, ResidualMatchesCsr) {
  const auto [n, chunk] = GetParam();
  gen::RandomOptions opt;
  opt.n = n;
  opt.seed = 77;
  const auto a = gen::random_sparse(opt);
  const auto s = csr_to_sell(a, chunk);
  const auto x = random_vector<double>(n, 3, -1.0, 1.0);
  const auto b = random_vector<double>(n, 4, -1.0, 1.0);

  std::vector<double> rc(n), rs(n);
  residual(a, std::span<const double>(x), std::span<const double>(b), std::span<double>(rc));
  residual(s, std::span<const double>(x), std::span<const double>(b), std::span<double>(rs));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(rs[i], rc[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SizesChunks, SellEquivalence,
                         ::testing::Combine(::testing::Values(1, 31, 32, 33, 257),
                                            ::testing::Values(1, 4, 32, 128)));

TEST(Sell, HalfPrecisionSpmvMatchesCsrHalf) {
  const auto a = gen::random_sparse({.n = 300, .avg_nnz_per_row = 8.0, .seed = 5});
  const auto a16 = cast_matrix<half>(a);
  const auto s16 = csr_to_sell(a16, 32);
  const auto x = random_vector<float>(300, 9, 0.0, 1.0);

  std::vector<float> yc(300), ys(300);
  spmv(a16, std::span<const float>(x), std::span<float>(yc));
  spmv(s16, std::span<const float>(x), std::span<float>(ys));
  // Same arithmetic per row, possibly different order due to padding taps
  // multiplying by zero — results should agree to fp32 rounding.
  for (int i = 0; i < 300; ++i) EXPECT_NEAR(ys[i], yc[i], 1e-4f * (1.0f + std::abs(yc[i])));
}

TEST(Sell, StencilChunk32MatchesPaperSetting) {
  const auto a = gen::hpcg(4, 4, 4);
  const auto s = csr_to_sell(a, 32);
  EXPECT_EQ(s.chunk, 32);
  EXPECT_EQ(s.nslices(), (a.nrows + 31) / 32);
  // 27-point stencil rows differ in nnz near boundaries → some padding.
  EXPECT_GT(sell_pad_ratio(s, a.nnz()), 1.0);
  EXPECT_LT(sell_pad_ratio(s, a.nnz()), 1.3);
}

}  // namespace
}  // namespace nk
