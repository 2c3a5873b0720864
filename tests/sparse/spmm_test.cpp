// Tests for the batched multi-RHS kernels: spmm / residual_many over CSR
// and SELL-C (sparse/spmm.hpp) and the column kernels dot_cols / axpy_cols
// / axpby_cols (base/blas_block.hpp).  Mirrors blas_block_test's grid:
// edge sizes 0/1/3/4099, every MT/XT precision pair, SELL chunk-remainder
// rows, and a forced multi-thread team re-run registered by CMake with
// OMP_NUM_THREADS=4 + NKRYLOV_PAR_THRESHOLD=0 (the PR 2 scratch-buffer bug
// class: kernels must stay correct when every parallel region really
// forms a team).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/blas_block.hpp"
#include "base/rng.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

// Edge sizes: empty, single row, sub-chunk, 4k+3 (multiple SELL chunks of
// 32 plus a 3-row remainder slice; also several parallel tiles).
const std::vector<index_t> kSizes = {0, 1, 3, 4099};
const std::vector<int> kCounts = {0, 1, 3, 8};

template <class T>
std::vector<T> typed_random(std::size_t n, std::uint64_t seed) {
  const auto d = random_vector<double>(n, seed, -1.0, 1.0);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<T>(d[i]);
  return out;
}

/// Sorted random test matrix; n = 0 degenerates to the empty matrix
/// (random_sparse itself rejects it).
CsrMatrix<double> test_matrix(index_t n, double nnz_per_row, std::uint64_t seed) {
  if (n == 0) return CsrMatrix<double>(0, 0);
  auto a = gen::random_sparse({.n = n, .avg_nnz_per_row = nnz_per_row, .seed = seed});
  a.sort_rows();
  return a;
}

/// Agreement bound between spmm and per-column spmv over CSR: bitwise,
/// except fp16 STORAGE with a wider vector type on FMA targets without the
/// AVX-512 row kernels, where both sides run plain-loop fallbacks that the
/// compiler may FMA-contract differently (see spmm.hpp) — there the bound
/// is fp32-rounding-level.  SELL runs the identical slice sweep on both
/// sides and is always bitwise.
template <class MT, class XT>
double csr_tol(double ref) {
#if defined(__FMA__) && !defined(NKRYLOV_FP16_ROWS_AVX512)
  if constexpr (sizeof(MT) == 2 && !std::is_same_v<MT, XT>)
    return 1e-5 * std::max(1.0, std::abs(ref));
#endif
  (void)ref;
  return 0.0;
}

template <class MT, class XT>
void check_spmm_pair() {
  for (index_t n : kSizes) {
    const auto a64 = test_matrix(n, 6.0, 77);
    const auto a = cast_matrix<MT>(a64);
    const auto s = csr_to_sell(a, 32);
    const auto s8 = csr_to_sell(a, 8);  // remainder rows in the last slice for n=1,3,4099
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<XT>(nn * static_cast<std::size_t>(k), 78);
      std::vector<XT> y(nn * static_cast<std::size_t>(k), XT{9});
      std::vector<XT> yref(nn);

      spmm(a, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
           static_cast<std::ptrdiff_t>(nn), k);
      for (int c = 0; c < k; ++c) {
        spmv(a, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
             std::span<XT>(yref));
        for (std::size_t i = 0; i < nn; ++i) {
          const double ref = static_cast<double>(yref[i]);
          ASSERT_NEAR(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]), ref,
                      (csr_tol<MT, XT>(ref)))
              << "csr n=" << n << " k=" << k << " c=" << c << " i=" << i;
        }
      }

      for (const auto* sm : {&s, &s8}) {
        std::fill(y.begin(), y.end(), XT{9});
        spmm(*sm, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
             static_cast<std::ptrdiff_t>(nn), k);
        for (int c = 0; c < k; ++c) {
          spmv(*sm, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
               std::span<XT>(yref));
          for (std::size_t i = 0; i < nn; ++i)
            ASSERT_EQ(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]),
                      static_cast<double>(yref[i]))
                << "sell C=" << sm->chunk << " n=" << n << " k=" << k << " c=" << c
                << " i=" << i;
        }
      }
    }
  }
}

TEST(Spmm, MatchesSpmvPerColumnAllPrecisionPairs) {
  check_spmm_pair<double, double>();
  check_spmm_pair<float, float>();
  check_spmm_pair<half, half>();
  check_spmm_pair<half, float>();  // F3R level 3: fp16 matrix, fp32 vectors
  check_spmm_pair<float, double>();
}

template <class MT, class XT>
void check_residual_many_pair() {
  for (index_t n : kSizes) {
    const auto a64 = test_matrix(n, 5.0, 80);
    const auto a = cast_matrix<MT>(a64);
    const auto s = csr_to_sell(a, 32);
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<XT>(nn * static_cast<std::size_t>(k), 81);
      const auto b = typed_random<XT>(nn * static_cast<std::size_t>(k), 82);
      std::vector<XT> r(nn * static_cast<std::size_t>(k), XT{9});
      std::vector<XT> rref(nn);

      residual_many(a, x.data(), static_cast<std::ptrdiff_t>(nn), b.data(),
                    static_cast<std::ptrdiff_t>(nn), r.data(),
                    static_cast<std::ptrdiff_t>(nn), k);
      for (int c = 0; c < k; ++c) {
        residual(a, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
                 std::span<const XT>(b.data() + static_cast<std::size_t>(c) * nn, nn),
                 std::span<XT>(rref));
        for (std::size_t i = 0; i < nn; ++i) {
          const double ref = static_cast<double>(rref[i]);
          ASSERT_NEAR(static_cast<double>(r[static_cast<std::size_t>(c) * nn + i]), ref,
                      (csr_tol<MT, XT>(ref)))
              << "csr n=" << n << " k=" << k << " c=" << c;
        }
      }

      std::fill(r.begin(), r.end(), XT{9});
      residual_many(s, x.data(), static_cast<std::ptrdiff_t>(nn), b.data(),
                    static_cast<std::ptrdiff_t>(nn), r.data(),
                    static_cast<std::ptrdiff_t>(nn), k);
      for (int c = 0; c < k; ++c) {
        residual(s, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
                 std::span<const XT>(b.data() + static_cast<std::size_t>(c) * nn, nn),
                 std::span<XT>(rref));
        for (std::size_t i = 0; i < nn; ++i)
          ASSERT_EQ(static_cast<double>(r[static_cast<std::size_t>(c) * nn + i]),
                    static_cast<double>(rref[i]))
              << "sell n=" << n << " k=" << k << " c=" << c;
      }
    }
  }
}

TEST(ResidualMany, MatchesResidualPerColumnAllPrecisionPairs) {
  check_residual_many_pair<double, double>();
  check_residual_many_pair<float, float>();
  check_residual_many_pair<half, half>();
  check_residual_many_pair<half, float>();
}

TEST(Spmm, ZeroColumnsIsNoop) {
  auto a = gen::random_sparse({.n = 16, .seed = 5});
  a.sort_rows();
  double sentinel = 123.0;
  spmm(a, &sentinel, 16, &sentinel, 16, 0);
  EXPECT_EQ(sentinel, 123.0);
}

TEST(Spmm, SellChunkRemainderRows) {
  // 4099 = 128·32 + 3: the final slice has 3 real rows and 29 padding
  // lanes; padding must contribute exact zeros for every precision.
  auto a64 = gen::laplace2d(4099, 1);
  a64.sort_rows();
  const auto a16 = cast_matrix<half>(a64);
  const auto s16 = csr_to_sell(a16, 32);
  const std::size_t nn = 4099;
  const int k = 3;
  const auto x = typed_random<float>(nn * k, 90);
  std::vector<float> y(nn * k), yref(nn);
  spmm(s16, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
       static_cast<std::ptrdiff_t>(nn), k);
  for (int c = 0; c < k; ++c) {
    spmv(s16, std::span<const float>(x.data() + static_cast<std::size_t>(c) * nn, nn),
         std::span<float>(yref));
    for (std::size_t i = 0; i < nn; ++i)
      ASSERT_EQ(y[static_cast<std::size_t>(c) * nn + i], yref[i]) << "c=" << c << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Column kernels (blas_block.hpp)
// ---------------------------------------------------------------------------

template <class TX, class TY>
void check_dot_cols() {
  for (index_t n : kSizes) {
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<TX>(nn * static_cast<std::size_t>(k), 60);
      const auto y = typed_random<TY>(nn * static_cast<std::size_t>(k), 61);
      using S = acc_t<promote_t<TX, TY>>;
      std::vector<S> out(static_cast<std::size_t>(k) + 1, S{99});
      blas::dot_cols(x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
                     static_cast<std::ptrdiff_t>(nn), k, nn, out.data());
      for (int c = 0; c < k; ++c) {
        // Serial-order reference replicating blas::dot's unrolling.
        S ref;
        if constexpr (sizeof(TX) == 2 || sizeof(TY) == 2) {
          S s0{0}, s1{0}, s2{0}, s3{0};
          std::size_t i = 0;
          for (; i + 4 <= nn; i += 4) {
            const std::size_t o = static_cast<std::size_t>(c) * nn + i;
            s0 += static_cast<S>(x[o]) * static_cast<S>(y[o]);
            s1 += static_cast<S>(x[o + 1]) * static_cast<S>(y[o + 1]);
            s2 += static_cast<S>(x[o + 2]) * static_cast<S>(y[o + 2]);
            s3 += static_cast<S>(x[o + 3]) * static_cast<S>(y[o + 3]);
          }
          for (; i < nn; ++i) {
            const std::size_t o = static_cast<std::size_t>(c) * nn + i;
            s0 += static_cast<S>(x[o]) * static_cast<S>(y[o]);
          }
          ref = (s0 + s1) + (s2 + s3);
        } else {
          S s{0};
          for (std::size_t i = 0; i < nn; ++i) {
            const std::size_t o = static_cast<std::size_t>(c) * nn + i;
            s += static_cast<S>(x[o]) * static_cast<S>(y[o]);
          }
          ref = s;
        }
        ASSERT_EQ(static_cast<double>(out[c]), static_cast<double>(ref))
            << "n=" << n << " k=" << k << " c=" << c;
      }
      EXPECT_EQ(static_cast<double>(out[static_cast<std::size_t>(k)]), 99.0);
    }
  }
}

TEST(DotCols, SerialOrderPerColumnAllPrecisionPairs) {
  check_dot_cols<double, double>();
  check_dot_cols<float, float>();
  check_dot_cols<half, half>();
  check_dot_cols<half, float>();
  check_dot_cols<float, double>();
}

template <class TX, class TY>
void check_axpy_cols() {
  using S = acc_t<promote_t<TX, TY>>;
  for (index_t n : kSizes) {
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<TX>(nn * static_cast<std::size_t>(k), 62);
      const auto y0 = typed_random<TY>(nn * static_cast<std::size_t>(k), 63);
      std::vector<S> alpha(static_cast<std::size_t>(std::max(k, 1)));
      std::vector<unsigned char> act(static_cast<std::size_t>(std::max(k, 1)), 1);
      for (int c = 0; c < k; ++c) alpha[c] = static_cast<S>(0.25 * (c + 1));
      if (k > 1) act[1] = 0;  // one frozen column must stay untouched

      std::vector<TY> fused = y0, ref = y0;
      blas::axpy_cols(alpha.data(), x.data(), static_cast<std::ptrdiff_t>(nn),
                      fused.data(), static_cast<std::ptrdiff_t>(nn), k, nn, act.data());
      for (int c = 0; c < k; ++c) {
        if (!act[c]) continue;
        blas::axpy(alpha[c],
                   std::span<const TX>(x.data() + static_cast<std::size_t>(c) * nn, nn),
                   std::span<TY>(ref.data() + static_cast<std::size_t>(c) * nn, nn));
      }
      for (std::size_t i = 0; i < fused.size(); ++i)
        ASSERT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref[i]))
            << "n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(AxpyCols, BitExactVsPerColumnAxpyWithMask) {
  check_axpy_cols<double, double>();
  check_axpy_cols<float, float>();
  check_axpy_cols<half, half>();
  check_axpy_cols<half, float>();
  check_axpy_cols<float, half>();
}

TEST(AxpbyCols, BitExactVsPerColumnAxpbyWithMask) {
  const std::size_t nn = 4099;
  const int k = 4;
  const auto x = typed_random<double>(nn * k, 64);
  const auto y0 = typed_random<double>(nn * k, 65);
  std::vector<double> alpha = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> beta = {0.5, -0.25, 2.0, 0.0};
  std::vector<unsigned char> act = {1, 0, 1, 1};
  std::vector<double> fused = y0, ref = y0;
  blas::axpby_cols(alpha.data(), x.data(), static_cast<std::ptrdiff_t>(nn), beta.data(),
                   fused.data(), static_cast<std::ptrdiff_t>(nn), k, nn, act.data());
  for (int c = 0; c < k; ++c) {
    if (!act[c]) continue;
    blas::axpby(alpha[c], std::span<const double>(x.data() + c * nn, nn), beta[c],
                std::span<double>(ref.data() + c * nn, nn));
  }
  for (std::size_t i = 0; i < fused.size(); ++i) ASSERT_EQ(fused[i], ref[i]) << i;
}

}  // namespace
}  // namespace nk
