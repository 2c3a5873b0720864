// Sparse matrix × multiple-vector products (SpMM) over CSR and SELL-C —
// the kernel behind batched multi-RHS solving.
//
// A batch of k right-hand sides advances in lockstep through a solver, so
// every operator application becomes Y_c = A·X_c for c in [0, k).  Running
// k separate SpMVs streams the matrix from memory k times; these kernels
// stream it ONCE: the row (CSR) or slice (SELL) being processed stays hot
// in L1/L2 while the k column dots read it, so the dominant traffic — the
// matrix values and indices — is shared across the whole batch.  For a
// memory-bound solve this is the single biggest lever batching has.
//
// Numerical contract: column c of spmm()/residual_many() performs exactly
// the accumulation sequence spmv()/residual() performs on that column
// (detail::row_dot's per-row order for CSR — including its four-way fp16
// partial-sum grouping — and the SIMD slice sweep for SELL), so batched
// and sequential solves produce bit-identical iterates per right-hand
// side.  fp16 × fp32 over CSR is bitwise where both sides spell the
// roundings out: the AVX-512 in-register kernels, and builds without FMA.
// On FMA targets without AVX-512 both sides run plain-loop fallbacks whose
// FMA contraction the compiler chooses per loop structure, so agreement
// there is at fp32 rounding level.  What changes is the SCHEDULE: the CSR
// kernel walks the row's nonzeros once and updates all k per-column
// accumulators per nonzero.
// That reads A once per batch instead of k times AND — the bigger effect
// on a single core — replaces k serial FMA dependency chains with k
// independent accumulators advancing in lockstep, so the row dot becomes
// throughput-bound instead of latency-bound.
//
// Layout: column c of X starts at x + c·ldx (each column contiguous,
// length n); same for Y/B.  Internally the fp16 × fp32 CSR kernel copies a
// row-major X group into an interleaved scratch panel (element (i, c) at
// i·kc + c, see interleave_x) so one load per nonzero feeds every column;
// callers never see that layout.  k = 0 is a no-op, k = 1 degenerates to
// spmv.
#pragma once

#include <span>
#include <vector>

#include "base/blas1.hpp"
#include "base/panel.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"

namespace nk {

/// Largest batch the CSR kernels hold in per-row stack accumulators; wider
/// batches are processed in column groups of this size (still exact).
inline constexpr int kSpmmMaxCols = 16;

namespace spmm_detail {

/// True where a row-major X is interleaved before the sweep (interleave_x).
template <class MT, class XT, class Acc>
inline constexpr bool kInterleaveX =
#if defined(NKRYLOV_FP16_ROWS_AVX512)
    std::is_same_v<MT, half> && std::is_same_v<XT, float> && std::is_same_v<Acc, float>;
#else
    false;
#endif

/// One CSR row × up to kSpmmMaxCols columns: per column the accumulation
/// sequence of row_dot on that column (plain `s += v·x` on the general
/// path, the four-way partial-sum grouping on the fp16-storage path),
/// interleaved across columns for ILP.  KC > 0 pins the column count at
/// compile time (k == KC) so the per-nonzero column loops fully unroll —
/// the difference between a modest and a large win on short stencil rows.
/// `out(c, s)` stores column c's row value.  LX = kColMajor is the
/// interleaved X of interleave_x (fp16 × fp32 only): the per-nonzero gather
/// lands at x + ci[t]·ldx and the k columns read unit-stride from there
/// (addressing only — the accumulation order per column is LX-independent).
template <class MT, class XT, class Acc, int KC,
          PanelLayout LX = PanelLayout::kRowMajor, class Out>
inline void row_dots(const MT* __restrict v, const index_t* __restrict ci,
                     const XT* __restrict x, std::ptrdiff_t ldx, int k_dyn, index_t b,
                     index_t e, Out&& out) {
  static_assert(LX == PanelLayout::kRowMajor || kInterleaveX<MT, XT, Acc>,
                "only the fp16 x fp32 row kernel reads an interleaved X");
  const int k = KC > 0 ? KC : k_dyn;
#if defined(NKRYLOV_FP16_ROWS_AVX512)
  if constexpr (kInterleaveX<MT, XT, Acc>) {
    if constexpr (LX == PanelLayout::kRowMajor) {
      // Row-major X: column by column through row_dot itself (spmm and
      // residual_many interleave X first when k > 1).
      for (int c = 0; c < k; ++c) out(c, detail::row_dot<MT, XT, Acc>(v, ci, x + c * ldx, b, e));
    } else {
      // Interleaved X: the k values of gathered row ci[t] are contiguous,
      // so one masked load per nonzero feeds lane (t − b) mod 4 of eight
      // columns at once — row_dot's sequence per column, no gathers.
      for (int c0 = 0; c0 < k; c0 += 8) {
        const int w = std::min(8, k - c0);
        const auto m = static_cast<__mmask8>((1u << w) - 1u);
        auto xrow = [&](index_t t) { return _mm256_maskz_loadu_ps(m, x + ci[t] * ldx + c0); };
        auto bcast = [&](index_t t) { return _mm256_set1_ps(static_cast<float>(v[t])); };
        __m256 lane[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                          _mm256_setzero_ps()};
        index_t t = b;
        for (; t + 16 <= e; t += 16) {
          alignas(64) float vf[16];
          _mm512_store_ps(vf, detail::cvt16(v + t));
          for (int j = 0; j < 16; ++j)
            lane[j % 4] = _mm256_maskz_add_ps(
                m, lane[j % 4], _mm256_maskz_mul_ps(m, _mm256_set1_ps(vf[j]), xrow(t + j)));
        }
        for (; t + 4 <= e; t += 4)
          for (int j = 0; j < 4; ++j) lane[j] = _mm256_fmadd_ps(bcast(t + j), xrow(t + j), lane[j]);
        for (; t < e; ++t) lane[0] = _mm256_fmadd_ps(bcast(t), xrow(t), lane[0]);
        alignas(32) float s[4][8];
        for (int j = 0; j < 4; ++j) _mm256_store_ps(s[j], lane[j]);
        for (int c = 0; c < w; ++c) out(c0 + c, (s[0][c] + s[1][c]) + (s[2][c] + s[3][c]));
      }
    }
  } else
#endif
  if constexpr (sizeof(MT) == 2 && !std::is_same_v<Acc, MT>) {
    // fp16 matrix path: reproduce row_dot's four-way partial sums — lane
    // (t − b) mod 4 over the 4-aligned prefix, remainder into lane 0 —
    // with the converted value shared across all k columns.
    Acc acc[4][kSpmmMaxCols] = {};
    Acc vf[16];
    index_t t = b;
    for (; t + 16 <= e; t += 16) {
      if constexpr (std::is_same_v<Acc, float>) {
        half_to_float_n(v + t, vf, 16);  // conversion-exact
      } else {
        for (int j = 0; j < 16; ++j) vf[j] = static_cast<Acc>(v[t + j]);
      }
      for (int j = 0; j < 16; ++j) {
        const Acc av = vf[j];
        const XT* __restrict xc = x + ci[t + j];
        Acc* __restrict lane = acc[j % 4];
        for (int c = 0; c < k; ++c) lane[c] += av * static_cast<Acc>(xc[c * ldx]);
      }
    }
    for (; t + 4 <= e; t += 4) {
      for (int j = 0; j < 4; ++j) {
        const Acc av = static_cast<Acc>(v[t + j]);
        const XT* __restrict xc = x + ci[t + j];
        Acc* __restrict lane = acc[j];
        for (int c = 0; c < k; ++c) lane[c] += av * static_cast<Acc>(xc[c * ldx]);
      }
    }
    for (; t < e; ++t) {
      const Acc av = static_cast<Acc>(v[t]);
      const XT* __restrict xc = x + ci[t];
      for (int c = 0; c < k; ++c) acc[0][c] += av * static_cast<Acc>(xc[c * ldx]);
    }
    for (int c = 0; c < k; ++c)
      out(c, (acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]));
  } else {
    Acc acc[kSpmmMaxCols] = {};
    for (index_t t = b; t < e; ++t) {
      const Acc av = static_cast<Acc>(v[t]);
      const XT* __restrict xc = x + ci[t];
      for (int c = 0; c < k; ++c) acc[c] += av * static_cast<Acc>(xc[c * ldx]);
    }
    for (int c = 0; c < k; ++c) out(c, acc[c]);
  }
}

/// Dispatch a column group to the compile-time-specialized row kernel.
/// Every width greedy_group produces is pinned: the common 16/8/4 tiers
/// AND the 1/2/3 tails — previously a <4 tail (any odd batch width, e.g. a
/// compacted survivor count of 5, 7, 9 or 17) fell into the dynamic
/// `<...,0>` kernel and silently lost the unrolled path.  The dynamic case
/// remains as a safety net only.
template <class Body>
inline void dispatch_cols(int kc, Body&& body) {
  switch (kc) {
    case 1: body.template operator()<1>(); break;
    case 2: body.template operator()<2>(); break;
    case 3: body.template operator()<3>(); break;
    case 4: body.template operator()<4>(); break;
    case 8: body.template operator()<8>(); break;
    case kSpmmMaxCols: body.template operator()<kSpmmMaxCols>(); break;
    default: body.template operator()<0>(); break;
  }
}

/// Greedy group decomposition (blas::greedy_group): keeps a compacted
/// active set (say 11 survivors of 16) in the fully-unrolled pinned
/// kernels instead of falling into the unpinned path as one ragged group.
inline int next_group(int remaining) { return blas::greedy_group(remaining, kSpmmMaxCols); }

/// Copy kc row-major columns of length n into an interleaved panel ((i, c)
/// at i·kc + c).  The fp16 × fp32 row kernel then reads the kc values of a
/// gathered row with one load instead of kc gathers, which more than pays
/// for the copy (about 2x at k = 8 on a 27-point stencil).  The copy is
/// exact.  The panel is per calling thread and only grows.
inline const float* interleave_x(const float* x, std::ptrdiff_t ldx, std::ptrdiff_t n, int kc) {
  thread_local std::vector<float> panel;
  const std::size_t need = static_cast<std::size_t>(n) * static_cast<std::size_t>(kc);
  if (panel.size() < need) panel.resize(need);
  float* p = panel.data();
#pragma omp parallel for schedule(static) if (n * kc > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    for (int c = 0; c < kc; ++c) p[i * kc + c] = x[c * ldx + i];
  return p;
}

/// One column group of kc ≤ kSpmmMaxCols columns over every row of A;
/// store(c, i, s) receives column c's value of row i.
template <PanelLayout LX, class MT, class XT, class Acc, class Store>
void sweep_group(const CsrMatrix<MT>& a, const XT* xg, std::ptrdiff_t ldx, int kc,
                 Store&& store) {
  if constexpr (LX == PanelLayout::kRowMajor && kInterleaveX<MT, XT, Acc>) {
    if (kc > 1) {
      sweep_group<PanelLayout::kColMajor, MT, XT, Acc>(
          a, interleave_x(xg, ldx, a.ncols, kc), kc, kc, store);
      return;
    }
  }
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = static_cast<std::ptrdiff_t>(a.nnz()) * kc;
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  dispatch_cols(kc, [&]<int KC>() {
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i)
      row_dots<MT, XT, Acc, KC, LX>(v, ci, xg, ldx, kc, rp[i], rp[i + 1],
                                   [&](int c, Acc s) { store(c, i, s); });
  });
}

}  // namespace spmm_detail

/// Y_c = A X_c over CSR for c in [0, k).
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(const CsrMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  for (int c0 = 0; c0 < k;) {
    const int kc = spmm_detail::next_group(k - c0);
    YT* yg = y + static_cast<std::ptrdiff_t>(c0) * ldy;
    spmm_detail::sweep_group<PanelLayout::kRowMajor, MT, XT, Acc>(
        a, x + static_cast<std::ptrdiff_t>(c0) * ldx, ldx, kc,
        [&](int c, std::ptrdiff_t i, Acc s) {
          yg[static_cast<std::ptrdiff_t>(c) * ldy + i] = static_cast<YT>(s);
        });
    c0 += kc;
  }
}

/// Y_c = B_c − A X_c over CSR (fused batched residual).
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual_many(const CsrMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, const BT* b,
                   std::ptrdiff_t ldb, YT* y, std::ptrdiff_t ldy, int k) {
  for (int c0 = 0; c0 < k;) {
    const int kc = spmm_detail::next_group(k - c0);
    const BT* bg = b + static_cast<std::ptrdiff_t>(c0) * ldb;
    YT* yg = y + static_cast<std::ptrdiff_t>(c0) * ldy;
    spmm_detail::sweep_group<PanelLayout::kRowMajor, MT, XT, Acc>(
        a, x + static_cast<std::ptrdiff_t>(c0) * ldx, ldx, kc,
        [&](int c, std::ptrdiff_t i, Acc s) {
          yg[static_cast<std::ptrdiff_t>(c) * ldy + i] =
              static_cast<YT>(static_cast<Acc>(bg[static_cast<std::ptrdiff_t>(c) * ldb + i]) - s);
        });
    c0 += kc;
  }
}

/// Y_c = A X_c over SELL-C: per slice, the SIMD column-major sweep runs
/// once per batch column while the slice's values/indices stay in cache.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(const SellMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  const std::ptrdiff_t work =
      static_cast<std::ptrdiff_t>(a.padded_nnz()) * std::max(k, 1);
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    const index_t base = a.slice_ptr[sl];
    const index_t w = a.slice_width[sl];
    for (int c = 0; c < k; ++c) {
      const XT* xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
      YT* yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      if (C <= kSellSimdMaxChunk) {
        sell_detail::slice_sweep_simd<MT, XT, Acc>(
            a.vals.data(), a.cols.data(), xc, base, w, C, r0, r1,
            [&](index_t i, Acc s) { yc[i] = static_cast<YT>(s); });
      } else {
        for (index_t i = r0; i < r1; ++i)
          yc[i] = static_cast<YT>(sell_detail::lane_dot<MT, XT, Acc>(
              a.vals.data(), a.cols.data(), xc, base, i - r0, w, C));
      }
    }
  }
}

/// Y_c = B_c − A X_c over SELL-C (fused batched residual).
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual_many(const SellMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, const BT* b,
                   std::ptrdiff_t ldb, YT* y, std::ptrdiff_t ldy, int k) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  const std::ptrdiff_t work =
      static_cast<std::ptrdiff_t>(a.padded_nnz()) * std::max(k, 1);
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    const index_t base = a.slice_ptr[sl];
    const index_t w = a.slice_width[sl];
    for (int c = 0; c < k; ++c) {
      const XT* xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
      const BT* bc = b + static_cast<std::ptrdiff_t>(c) * ldb;
      YT* yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      if (C <= kSellSimdMaxChunk) {
        sell_detail::slice_sweep_simd<MT, XT, Acc>(
            a.vals.data(), a.cols.data(), xc, base, w, C, r0, r1, [&](index_t i, Acc s) {
              yc[i] = static_cast<YT>(static_cast<Acc>(bc[i]) - s);
            });
      } else {
        for (index_t i = r0; i < r1; ++i) {
          const Acc s = sell_detail::lane_dot<MT, XT, Acc>(a.vals.data(), a.cols.data(), xc,
                                                           base, i - r0, w, C);
          yc[i] = static_cast<YT>(static_cast<Acc>(bc[i]) - s);
        }
      }
    }
  }
}

}  // namespace nk
