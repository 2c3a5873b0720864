// Sparse matrix-vector products over CSR, including the mixed-precision
// variants the paper relies on:
//
//   * fp64 A × fp64 x   — outermost FGMRES level
//   * fp32 A × fp32 x   — second FGMRES level
//   * fp16 A × fp32 x   — third FGMRES level ("F^m3 performs SpMV in fp32
//                          because A is stored in fp16 while the input
//                          Arnoldi basis is in fp32")
//   * fp16 A × fp16 x   — innermost Richardson
//
// The accumulation type defaults to the promoted input type, i.e. a pure
// fp16 product accumulates in fp16 exactly as native fp16 FMA hardware
// would (GCC rounds each _Float16 operation to binary16).
#pragma once

#include <cmath>
#include <span>

#include "base/blas1.hpp"
#include "sparse/csr.hpp"

// The fp16 × fp32 row kernels here and in spmm.hpp run in AVX-512
// registers when the build targets the ISA, and as plain loops with the
// same association otherwise.  The choice is made at build time only.
#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__FMA__)
#define NKRYLOV_FP16_ROWS_AVX512 1
#endif

namespace nk {

namespace detail {

#if defined(NKRYLOV_FP16_ROWS_AVX512)
// The AVX-512 row kernels use the masked intrinsic forms with an all-ones
// mask: they compile to the plain instructions, but unlike the unmasked
// forms they neither read an undefined register (GCC 12 warns) nor expose
// a multiply to FMA contraction, so the roundings are the ones written.
inline constexpr __mmask16 kAll16 = 0xFFFF;

/// float(v[j]) for 16 consecutive halves (shared with spmm.hpp).
inline __m512 cvt16(const half* v) {
  return _mm512_maskz_cvtph_ps(kAll16, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v)));
}
#endif

/// Dot of one CSR row with a gathered vector, accumulating in Acc.
///
/// fp16 values with a wider accumulator keep four partial sums s0..s3:
/// 16-value chunks add each rounded product v·x to lane j mod 4, 4-value
/// chunks fuse it into lane j, leftover values fuse into s0, and the row
/// value is (s0 + s1) + (s2 + s3).  Independent lanes keep the row off a
/// single add chain.  For fp16 × fp32 on AVX-512 each chunk is converted
/// (vcvtph2ps), gathered (vgatherdps) and multiplied in registers: staging
/// the converted values in a stack array for scalar gathered multiply-adds
/// runs the kernel about 2x slower.  The plain loop below is the fallback
/// for builds without the ISA; it has the same association, and the
/// compiler picks its fusing.  spmv_fp16_rows_test pins the bits.
template <class MT, class XT, class Acc>
inline Acc row_dot(const MT* __restrict v, const index_t* __restrict ci,
                   const XT* __restrict x, index_t begin, index_t end) {
#if defined(NKRYLOV_FP16_ROWS_AVX512)
  if constexpr (std::is_same_v<MT, half> && std::is_same_v<XT, float> &&
                std::is_same_v<Acc, float>) {
    __m128 s = _mm_setzero_ps();  // s0..s3
    index_t k = begin;
    for (; k + 16 <= end; k += 16) {
      const __m512 xg =
          _mm512_mask_i32gather_ps(_mm512_setzero_ps(), kAll16, _mm512_loadu_si512(ci + k), x, 4);
      const __m512 p = _mm512_maskz_mul_ps(kAll16, cvt16(v + k), xg);
      s = _mm_add_ps(s, _mm512_maskz_extractf32x4_ps(0xF, p, 0));
      s = _mm_add_ps(s, _mm512_maskz_extractf32x4_ps(0xF, p, 1));
      s = _mm_add_ps(s, _mm512_maskz_extractf32x4_ps(0xF, p, 2));
      s = _mm_add_ps(s, _mm512_maskz_extractf32x4_ps(0xF, p, 3));
    }
    for (; k + 4 <= end; k += 4) {
      const __m128 vf = _mm_cvtph_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + k)));
      const __m128 xg =
          _mm_i32gather_ps(x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(ci + k)), 4);
      s = _mm_fmadd_ps(vf, xg, s);
    }
    alignas(16) float l[4];
    _mm_store_ps(l, s);
    for (; k < end; ++k) l[0] = std::fma(static_cast<float>(v[k]), x[ci[k]], l[0]);
    return (l[0] + l[1]) + (l[2] + l[3]);
  } else
#endif
  if constexpr (sizeof(MT) == 2 && !std::is_same_v<Acc, MT>) {
    Acc vf[16];
    Acc s0{0}, s1{0}, s2{0}, s3{0};
    index_t k = begin;
    for (; k + 16 <= end; k += 16) {
      if constexpr (std::is_same_v<Acc, float>)
        half_to_float_n(v + k, vf, 16);  // GCC can't vectorize this loop itself
      else
        for (int j = 0; j < 16; ++j) vf[j] = static_cast<Acc>(v[k + j]);
      for (int j = 0; j < 16; j += 4) {
        s0 += vf[j] * static_cast<Acc>(x[ci[k + j]]);
        s1 += vf[j + 1] * static_cast<Acc>(x[ci[k + j + 1]]);
        s2 += vf[j + 2] * static_cast<Acc>(x[ci[k + j + 2]]);
        s3 += vf[j + 3] * static_cast<Acc>(x[ci[k + j + 3]]);
      }
    }
    for (; k + 4 <= end; k += 4) {
      s0 += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
      s1 += static_cast<Acc>(v[k + 1]) * static_cast<Acc>(x[ci[k + 1]]);
      s2 += static_cast<Acc>(v[k + 2]) * static_cast<Acc>(x[ci[k + 2]]);
      s3 += static_cast<Acc>(v[k + 3]) * static_cast<Acc>(x[ci[k + 3]]);
    }
    for (; k < end; ++k) s0 += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
    return (s0 + s1) + (s2 + s3);
  } else {
    Acc s{0};
    for (index_t k = begin; k < end; ++k)
      s += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
    return s;
  }
}

}  // namespace detail

/// y = A x.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(const CsrMatrix<MT>& a, std::span<const XT> x, std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = a.nnz();
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  const XT* __restrict xp = x.data();
  YT* __restrict yp = y.data();
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    yp[i] = static_cast<YT>(detail::row_dot<MT, XT, Acc>(v, ci, xp, rp[i], rp[i + 1]));
}

/// y = b - A x  (fused residual; saves one pass over y).
template <class MT, class XT, class BT, class YT, class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(const CsrMatrix<MT>& a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = a.nnz();
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  const XT* __restrict xp = x.data();
  const BT* __restrict bp = b.data();
  YT* __restrict yp = y.data();
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const Acc s = detail::row_dot<MT, XT, Acc>(v, ci, xp, rp[i], rp[i + 1]);
    yp[i] = static_cast<YT>(static_cast<Acc>(bp[i]) - s);
  }
}

/// ‖b - A x‖₂ / ‖b‖₂ computed entirely in fp64 — the paper's convergence
/// criterion, evaluated at the outermost level only.
template <class MT, class XT>
double relative_residual(const CsrMatrix<MT>& a, std::span<const XT> x,
                         std::span<const double> b) {
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = a.nnz();
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  double rr = 0.0, bb = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : rr, bb) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double s = b[i];
    for (index_t k = rp[i]; k < rp[i + 1]; ++k)
      s -= static_cast<double>(v[k]) * static_cast<double>(x[ci[k]]);
    rr += s * s;
    bb += b[i] * b[i];
  }
  return bb == 0.0 ? std::sqrt(rr) : std::sqrt(rr / bb);
}

}  // namespace nk
