// Tests for block-Jacobi IC(0).
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

CsrMatrix<double> spd_tridiag(index_t n, double diag) {
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(diag);
    if (i + 1 < n) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = std::move(cols);
  a.vals = std::move(vals);
  return a;
}

TEST(Ic0, ExactCholeskyOnTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix generates no fill → exact Cholesky.
  const auto a = spd_tridiag(40, 2.5);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 0);
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(40, 1, -1.0, 1.0);
  std::vector<double> z(40), az(40);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < 40; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ic0, FactorsReproduceMatrixOnPattern) {
  // On the tridiagonal pattern L Lᵀ must equal A entrywise.
  const auto a = spd_tridiag(10, 3.0);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  const auto& f = m.factors_fp64();
  // Reconstruct (L Lᵀ)_{ij} for stored lower entries and the diagonal.
  auto lentry = [&](index_t i, index_t j) {
    for (index_t p = f.l_row_ptr[i]; p < f.l_row_ptr[i + 1]; ++p)
      if (f.l_col[p] == j) return f.l_val[p];
    return 0.0;
  };
  for (index_t i = 0; i < 10; ++i)
    for (index_t j = std::max<index_t>(0, i - 1); j <= i; ++j) {
      double s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += lentry(i, k) * lentry(j, k);
      EXPECT_NEAR(s, a.at(i, j), 1e-12) << "(" << i << "," << j << ")";
    }
}

TEST(Ic0, SymmetricApplyIsSymmetric) {
  // M⁻¹ = L⁻ᵀL⁻¹ is symmetric: (M⁻¹u, v) == (u, M⁻¹v).
  auto a = test::laplace2d(12, 12);
  BlockJacobiIc0 m(a, {.nblocks = 3, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto u = random_vector<double>(a.nrows, 4, -1.0, 1.0);
  const auto v = random_vector<double>(a.nrows, 5, -1.0, 1.0);
  std::vector<double> mu(a.nrows), mv(a.nrows);
  h->apply(std::span<const double>(u), std::span<double>(mu));
  h->apply(std::span<const double>(v), std::span<double>(mv));
  const double lhs = blas::dot(std::span<const double>(mu), std::span<const double>(v));
  const double rhs = blas::dot(std::span<const double>(u), std::span<const double>(mv));
  EXPECT_NEAR(lhs, rhs, 1e-10 * std::abs(lhs));
}

TEST(Ic0, PositiveDefiniteApply) {
  // (r, M⁻¹ r) > 0 for any nonzero r.
  auto a = test::scaled_hpcg(3);
  BlockJacobiIc0 m(a, {.nblocks = 4, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto r = random_vector<double>(a.nrows, seed, -1.0, 1.0);
    std::vector<double> z(a.nrows);
    h->apply(r, std::span<double>(z));
    EXPECT_GT(blas::dot(std::span<const double>(r), std::span<const double>(z)), 0.0);
  }
}

TEST(Ic0, BreakdownClampedOnIndefiniteMatrix) {
  // An indefinite diagonal breaks IC(0); pivots are clamped and counted.
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.vals = {1.0, -1.0};
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 1);
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {1.0, 1.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_TRUE(std::isfinite(z[0]));
  EXPECT_TRUE(std::isfinite(z[1]));
}

TEST(Ic0, AlphaReducesBreakdowns) {
  // A nearly-indefinite SPD-ish matrix: boosting the diagonal during
  // factorization (the paper's α technique) avoids pivot clamps.
  CsrMatrix<double> a(3, 3);
  a.row_ptr = {0, 3, 6, 9};
  a.col_idx = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  a.vals = {1.0, -0.9, -0.9, -0.9, 1.0, -0.9, -0.9, -0.9, 1.0};
  BlockJacobiIc0 plain(a, {.nblocks = 1, .alpha = 1.0});
  BlockJacobiIc0 boosted(a, {.nblocks = 1, .alpha = 2.5});
  EXPECT_GT(plain.breakdowns(), 0);
  EXPECT_EQ(boosted.breakdowns(), 0);
}

TEST(Ic0, CastHandlesAgree) {
  auto a = test::scaled_laplace2d(10, 10);
  BlockJacobiIc0 m(a, {.nblocks = 2, .alpha = 1.0});
  const auto r = random_vector<double>(a.nrows, 9, 0.0, 1.0);
  std::vector<double> z64(a.nrows), z16(a.nrows);
  m.make_apply_fp64(Prec::FP64)->apply(r, std::span<double>(z64));
  m.make_apply_fp64(Prec::FP16)->apply(r, std::span<double>(z16));
  const double ref = blas::nrm_inf(std::span<const double>(z64));
  for (index_t i = 0; i < a.nrows; ++i) EXPECT_NEAR(z16[i], z64[i], 0.05 * ref);
}

TEST(Ic0, ApplyMatchesReferenceSubstitutionAtEveryStorage) {
  // Textbook substitution on the fp64 factors, both sweeps in ascending
  // position order; the apply handles walk the backward rows far-to-near,
  // which moves rounding only.
  auto a = test::scaled_hpcg(3);
  BlockJacobiIc0 m(a, {.nblocks = 4, .alpha = 1.0});
  const auto& f = m.factors_fp64();
  const auto r = random_vector<double>(a.nrows, 9, 0.0, 1.0);
  std::vector<double> ref(r);
  for (index_t i = 0; i < f.n; ++i) {
    const index_t d = f.l_row_ptr[i + 1] - 1;
    for (index_t p = f.l_row_ptr[i]; p < d; ++p) ref[i] -= f.l_val[p] * ref[f.l_col[p]];
    ref[i] /= f.l_val[d];
  }
  for (index_t i = f.n; i-- > 0;) {
    const index_t d = f.lt_row_ptr[i];
    for (index_t p = d + 1; p < f.lt_row_ptr[i + 1]; ++p) ref[i] -= f.lt_val[p] * ref[f.lt_col[p]];
    ref[i] /= f.lt_val[d];
  }
  // Ic0.CastHandlesAgree's bound for reduced storage; fp64 storage only
  // reorders roundings.
  const double zmax = blas::nrm_inf(std::span<const double>(ref));
  for (Prec storage : {Prec::FP64, Prec::FP32, Prec::FP16}) {
    std::vector<double> z(a.nrows);
    m.make_apply_fp64(storage)->apply(r, std::span<double>(z));
    const double tol = (storage == Prec::FP64 ? 1e-12 : 0.05) * zmax;
    for (index_t i = 0; i < a.nrows; ++i)
      ASSERT_NEAR(z[i], ref[i], tol) << prec_name(storage) << " row " << i;
  }
}

TEST(Ic0, InvocationCounting) {
  const auto a = spd_tridiag(8, 3.0);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r(8, 1.0), z(8);
  for (int i = 0; i < 5; ++i) h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_EQ(m.invocations(), 5u);
}

TEST(Ic0, RejectsNonSquare) {
  CsrMatrix<double> a(2, 3);
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(BlockJacobiIc0(a, {}), std::invalid_argument);
}

}  // namespace
}  // namespace nk
