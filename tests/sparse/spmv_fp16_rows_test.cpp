// Bitwise pin of the fp16 × fp32 CSR row kernel (detail::row_dot behind
// spmv and residual, and its per-column port in spmm).  The reference
// below spells out the association: four lanes s0..s3; 16-value chunks add
// each rounded product v·x to lane j mod 4; 4-value chunks fuse it into
// lane j; leftover values fuse into s0; the row value is
// (s0 + s1) + (s2 + s3).  Row lengths 0..40 cover every mix of 16-chunks,
// 4-chunks and leftovers.
//
// This file is compiled with -ffp-contract=off (tests/CMakeLists.txt), so
// the reference rounds exactly as written: std::fma where the kernel fuses,
// separate multiply and add elsewhere.  A build without FMA has no fused
// step anywhere.  On FMA targets without the AVX-512 kernels the plain-loop
// fallback leaves the fusing to the compiler, so the bitwise cases skip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

#if defined(NKRYLOV_FP16_ROWS_AVX512)
constexpr bool kPinned = true, kFused = true;
#elif !defined(__FMA__)
constexpr bool kPinned = true, kFused = false;
#else
constexpr bool kPinned = false, kFused = true;
#endif

constexpr index_t kMaxRow = 40;

/// Row i holds i mod (kMaxRow + 1) entries at distinct random columns.
CsrMatrix<half> rows_matrix(index_t nrows, index_t ncols) {
  CsrMatrix<half> a(nrows, ncols);
  Xoshiro256 rng(2024);
  const index_t stride = ncols / (kMaxRow + 1);
  for (index_t i = 0; i < nrows; ++i) {
    const index_t start = static_cast<index_t>(rng.uniform_index(ncols - kMaxRow * stride));
    for (index_t j = 0; j < i % (kMaxRow + 1); ++j) {
      a.col_idx.push_back(start + j * stride);
      a.vals.push_back(static_cast<half>(rng.uniform(-1.0, 1.0)));
    }
    a.row_ptr[i + 1] = static_cast<index_t>(a.col_idx.size());
  }
  return a;
}

float reference_row(const CsrMatrix<half>& a, const float* x, index_t i) {
  auto val = [&](index_t t) { return static_cast<float>(a.vals[t]); };
  auto xv = [&](index_t t) { return x[a.col_idx[t]]; };
  auto fused = [&](float s, index_t t) {
    if constexpr (kFused) return std::fma(val(t), xv(t), s);
    const float p = val(t) * xv(t);
    return s + p;
  };
  float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  index_t k = a.row_ptr[i];
  const index_t e = a.row_ptr[i + 1];
  for (; k + 16 <= e; k += 16)
    for (int j = 0; j < 16; ++j) {
      const float p = val(k + j) * xv(k + j);
      s[j % 4] = s[j % 4] + p;
    }
  for (; k + 4 <= e; k += 4)
    for (int j = 0; j < 4; ++j) s[j] = fused(s[j], k + j);
  for (; k < e; ++k) s[0] = fused(s[0], k);
  return (s[0] + s[1]) + (s[2] + s[3]);
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

class Fp16Rows : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kPinned) GTEST_SKIP() << "FMA without the AVX-512 kernels: fusing is the compiler's";
  }
  const index_t n = 4 * (kMaxRow + 1);
  const CsrMatrix<half> a = rows_matrix(n, 997);
  const std::vector<float> x = random_vector<float>(997, 7, -2.0, 2.0);
};

TEST_F(Fp16Rows, SpmvMatchesReferenceBitwise) {
  std::vector<float> y(static_cast<std::size_t>(n));
  spmv(a, std::span<const float>(x), std::span<float>(y));
  int order_sensitive = 0;
  for (index_t i = 0; i < n; ++i) {
    const float ref = reference_row(a, x.data(), i);
    EXPECT_TRUE(same_bits(y[i], ref)) << "row " << i << " length " << a.row_ptr[i + 1] - a.row_ptr[i]
                                      << ": " << y[i] << " vs " << ref;
    float seq = 0.0f;  // one plain chain: a different association
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const float p = static_cast<float>(a.vals[k]) * x[a.col_idx[k]];
      seq = seq + p;
    }
    order_sensitive += same_bits(seq, ref) ? 0 : 1;
  }
  EXPECT_GT(order_sensitive, 0) << "data too benign to tell associations apart";
}

TEST_F(Fp16Rows, ResidualMatchesReferenceBitwise) {
  const auto b = random_vector<float>(static_cast<std::size_t>(n), 8, -1.0, 1.0);
  std::vector<float> r(static_cast<std::size_t>(n));
  residual(a, std::span<const float>(x), std::span<const float>(b), std::span<float>(r));
  for (index_t i = 0; i < n; ++i)
    EXPECT_TRUE(same_bits(r[i], b[i] - reference_row(a, x.data(), i))) << "row " << i;
}

TEST_F(Fp16Rows, SpmmMatchesReferenceBitwiseInBothLayouts) {
  // Row-major panels in and out.  For k > 1 the kernel interleaves X
  // internally before the row sweep (the "both layouts" of the name: the
  // caller's row-major X and the kernel's interleaved copy of it), so this
  // pins that internal path against the per-row reference too.
  const std::ptrdiff_t nc = a.ncols;
  for (int k : {1, 3, 8, 16}) {
    const auto xr = random_vector<float>(static_cast<std::size_t>(nc * k), 9, -2.0, 2.0);
    std::vector<float> yr(static_cast<std::size_t>(n) * k);
    spmm(a, xr.data(), nc, yr.data(), n, k);
    for (int c = 0; c < k; ++c)
      for (index_t i = 0; i < n; ++i) {
        const float ref = reference_row(a, xr.data() + c * nc, i);
        EXPECT_TRUE(same_bits(yr[c * n + i], ref)) << "k=" << k << " c=" << c << " row " << i;
      }
  }
}

}  // namespace
}  // namespace nk
