// Tests for block-Jacobi ILU(0).
#include <gtest/gtest.h>

#include <utility>

#include "base/rng.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

TEST(BlockStarts, BalancedPartition) {
  const auto s = make_block_starts(10, 3);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.front(), 0);
  EXPECT_EQ(s.back(), 10);
  for (std::size_t b = 1; b < s.size(); ++b) EXPECT_GE(s[b], s[b - 1]);
}

TEST(BlockStarts, MoreBlocksThanRowsClamped) {
  const auto s = make_block_starts(3, 16);
  EXPECT_EQ(s.back(), 3);
  EXPECT_LE(s.size(), 4u);
}

TEST(Ilu0, ExactOnTridiagonalSingleBlock) {
  // ILU(0) on a tridiagonal matrix has no discarded fill: LU is exact, so
  // M⁻¹r solves A z = r to machine precision.
  const index_t n = 50;
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(2.5);
    if (i + 1 < n) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = cols;
  a.vals = vals;

  BlockJacobiIlu0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 0);
  auto h = m.make_apply_fp64(Prec::FP64);

  const auto r = random_vector<double>(n, 2, -1.0, 1.0);
  std::vector<double> z(n), az(n);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ilu0, DiagonalMatrixGivesExactInverse) {
  CsrMatrix<double> a(4, 4);
  a.row_ptr = {0, 1, 2, 3, 4};
  a.col_idx = {0, 1, 2, 3};
  a.vals = {2.0, 4.0, 0.5, -8.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {2, 4, 1, 8}, z(4);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
  EXPECT_DOUBLE_EQ(z[3], -1.0);
}

TEST(Ilu0, BlocksAreIndependent) {
  // Two decoupled tridiagonal blocks with a 2-block partition must equal
  // per-block exact solves.
  const index_t half_n = 20, n = 2 * half_n;
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = i < half_n ? 0 : half_n;
    const index_t hi = i < half_n ? half_n : n;
    if (i > lo) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(3.0);
    if (i + 1 < hi) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = cols;
  a.vals = vals;

  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(n, 3, -1.0, 1.0);
  std::vector<double> z(n), az(n);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ilu0, OffBlockEntriesAreDropped) {
  // A dense 2×2-coupled system partitioned into 2 blocks of 1: the
  // preconditioner reduces to diagonal scaling.
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 2, 4};
  a.col_idx = {0, 1, 0, 1};
  a.vals = {4.0, 1.0, 1.0, 4.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {4.0, 8.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // 4/4, coupling ignored
  EXPECT_DOUBLE_EQ(z[1], 2.0);
}

TEST(Ilu0, AlphaBoostsFactorDiagonal) {
  const auto a = gen::hpcg(2, 2, 2);
  BlockJacobiIlu0 m1(a, {.nblocks = 1, .alpha = 1.0});
  BlockJacobiIlu0 m2(a, {.nblocks = 1, .alpha = 2.0});
  // With a doubled diagonal the U factor's diagonal grows, so M⁻¹r shrinks.
  std::vector<double> r(a.nrows, 1.0), z1(a.nrows), z2(a.nrows);
  m1.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z1));
  m2.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z2));
  EXPECT_LT(blas::nrm2(std::span<const double>(z2)), blas::nrm2(std::span<const double>(z1)));
}

TEST(Ilu0, MissingDiagonalInsertedAndCounted) {
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 1, 2};
  a.col_idx = {1, 0};  // no diagonal at all
  a.vals = {1.0, 1.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 2);  // zero pivots replaced by 1
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {3.0, 5.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 5.0);
}

TEST(Ilu0, CastStorageCloseToFp64Apply) {
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  const auto r = random_vector<double>(a.nrows, 5, 0.0, 1.0);
  std::vector<double> z64(a.nrows), z32(a.nrows), z16(a.nrows);
  m.make_apply_fp64(Prec::FP64)->apply(r, std::span<double>(z64));
  m.make_apply_fp64(Prec::FP32)->apply(r, std::span<double>(z32));
  m.make_apply_fp64(Prec::FP16)->apply(r, std::span<double>(z16));
  const double n64 = blas::nrm2(std::span<const double>(z64));
  double e32 = 0.0, e16 = 0.0;
  for (index_t i = 0; i < a.nrows; ++i) {
    e32 = std::max(e32, std::abs(z32[i] - z64[i]));
    e16 = std::max(e16, std::abs(z16[i] - z64[i]));
  }
  EXPECT_LT(e32, 1e-4 * n64);
  EXPECT_LT(e16, 2e-2 * n64);
  EXPECT_GT(e16, 0.0);  // fp16 storage really is coarser
}

TEST(Ilu0, ApplyMatchesReferenceSubstitutionAtEveryStorage) {
  // Textbook substitution on the fp64 factors, both sweeps in ascending
  // position order; the apply handles walk the backward rows far-to-near,
  // which moves rounding only.  Bounds: Ilu0.CastStorageCloseToFp64Apply's.
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  const auto& f = m.factors_fp64();
  const auto r = random_vector<double>(a.nrows, 5, 0.0, 1.0);
  std::vector<double> ref(r);
  for (index_t i = 0; i < f.n; ++i)
    for (index_t p = f.row_ptr[i]; p < f.diag_pos[i]; ++p)
      ref[i] -= f.vals[p] * ref[f.col_idx[p]];
  for (index_t i = f.n; i-- > 0;) {
    for (index_t p = f.diag_pos[i] + 1; p < f.row_ptr[i + 1]; ++p)
      ref[i] -= f.vals[p] * ref[f.col_idx[p]];
    ref[i] /= f.vals[f.diag_pos[i]];
  }
  const double n64 = blas::nrm2(std::span<const double>(ref));
  for (auto [storage, tol] : {std::pair{Prec::FP64, 1e-12}, std::pair{Prec::FP32, 1e-4},
                              std::pair{Prec::FP16, 2e-2}}) {
    std::vector<double> z(a.nrows);
    m.make_apply_fp64(storage)->apply(r, std::span<double>(z));
    for (index_t i = 0; i < a.nrows; ++i)
      ASSERT_NEAR(z[i], ref[i], tol * n64) << prec_name(storage) << " row " << i;
  }
}

/// ilu_solve_many against ilu_solve column by column, bit for bit; k = 19
/// runs a 16- and a 3-column group.
template <class P, class VT>
void check_solve_many_matches_solve(const IluFactors<P>& f) {
  const int k = 19;
  const std::ptrdiff_t n = f.n;
  const auto r = random_vector<VT>(static_cast<std::size_t>(n * k), 11, 0.0, 1.0);
  std::vector<VT> z(r.size());
  ilu_solve_many(f, r.data(), n, z.data(), n, k);
  for (int c = 0; c < k; ++c) {
    std::vector<VT> zc(static_cast<std::size_t>(n));
    ilu_solve(f, std::span<const VT>(r.data() + c * n, static_cast<std::size_t>(n)),
              std::span<VT>(zc));
    for (std::ptrdiff_t i = 0; i < n; ++i)
      ASSERT_EQ(static_cast<double>(z[c * n + i]), static_cast<double>(zc[i]))
          << "column " << c << " row " << i;
  }
}

TEST(Ilu0, SolveManyMatchesSolvePerColumnBitwise) {
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  const auto& f64 = m.factors_fp64();
  const auto f32 = cast_factors<float>(f64);
  const auto f16 = cast_factors<half>(f64);
  check_solve_many_matches_solve<double, double>(f64);
  check_solve_many_matches_solve<float, float>(f32);
  check_solve_many_matches_solve<half, float>(f16);
  check_solve_many_matches_solve<half, half>(f16);
}

TEST(Ilu0, InvocationCounterSharedAcrossHandles) {
  const auto a = gen::hpcg(2, 2, 2);
  BlockJacobiIlu0 m(a, {.nblocks = 1, .alpha = 1.0});
  auto h64 = m.make_apply_fp64(Prec::FP64);
  auto h32 = m.make_apply_fp32(Prec::FP32);
  auto h16 = m.make_apply_fp16(Prec::FP16);
  std::vector<double> r(a.nrows, 1.0), z(a.nrows);
  std::vector<float> rf(a.nrows, 1.0f), zf(a.nrows);
  std::vector<half> rh(a.nrows, static_cast<half>(1.0f)), zh(a.nrows);
  h64->apply(std::span<const double>(r), std::span<double>(z));
  h32->apply(std::span<const float>(rf), std::span<float>(zf));
  h16->apply(std::span<const half>(rh), std::span<half>(zh));
  EXPECT_EQ(m.invocations(), 3u);
  m.reset_invocations();
  EXPECT_EQ(m.invocations(), 0u);
}

TEST(Ilu0, RejectsNonSquare) {
  CsrMatrix<double> a(2, 3);
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(BlockJacobiIlu0(a, {}), std::invalid_argument);
}

TEST(Ilu0, Fp16VectorApplyStaysFinite) {
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  auto h = m.make_apply_fp16(Prec::FP16);
  const auto r = random_vector<half>(a.nrows, 6, 0.0, 1.0);
  std::vector<half> z(a.nrows);
  h->apply(std::span<const half>(r), std::span<half>(z));
  EXPECT_EQ(blas::count_nonfinite(std::span<const half>(z)), 0u);
}

}  // namespace
}  // namespace nk
