// Blocked multi-vector BLAS kernels — the fused Arnoldi hot path.
//
// Classical Gram-Schmidt against k basis vectors, written with blas1
// primitives, is k independent dot() calls followed by k independent
// axpy() calls: 2k parallel-region launches and 2k full passes over w.
// F3R nests three FGMRES levels, so that sequence executes millions of
// times per solve.  The kernels here do the same math in one pass:
//
//   dot_many   out[j] = V_jᵀ·w  for all j   — one sweep over V and w
//   axpy_many  w (±)= Σ_j h[j]·V_j          — one read-modify-write of w
//   scal_copy  dst = α·src                  — fuses normalize-then-copy
//
// V is a contiguous row-major block (vector j starts at v + j·ld), which
// is how FgmresSolver now stores its Arnoldi and preconditioned bases.
//
// Numerical contract: per output element these kernels perform bit-for-bit
// the same operation sequence as the blas1 loops they replace (at one
// thread for dot_many; at any thread count for axpy_many/scal_copy, whose
// chains are element-local).  In particular axpy_many rounds the running
// value to the vector precision after every term — exactly what k chained
// axpy() stores do — so fusing changes the schedule, never the math.
// Reductions over fp16 inputs accumulate in fp32 with the same four-way
// unrolling as blas::dot (see the false-dependency note there).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "base/blas1.hpp"
#include "base/half.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nk::blas {

namespace block_detail {

/// Cache tile (elements) for the i-dimension: w's tile stays in L1 while
/// the k basis rows stream past it.  Multiple of 4 so the fp16 four-way
/// accumulator grouping stays aligned with blas::dot's across tiles.
inline constexpr std::ptrdiff_t kTile = 1024;

/// Stack-scratch capacity in basis vectors: covers every FGMRES
/// configuration in the repo (outermost m = 100 → k ≤ 101) without heap
/// allocation; larger k falls back to a heap buffer.
inline constexpr int kMaxStackK = 128;

/// Register-blocked group core of dot_many's fp64/fp32 path: KG columns'
/// accumulator chains advance together through one sweep over [i0, i1).
/// Per column the i-order (and therefore the rounding sequence) is exactly
/// the single-chain loop's — grouping columns adds INSTRUCTION-level
/// parallelism without touching any column's math.  KG is a compile-time
/// constant so the inner loop fully unrolls into KG independent FMA chains
/// held in registers; the serial per-column chain this replaces was
/// latency-bound at one element per FMA latency (~7 GB/s where a single
/// dot streams 13 GB/s — the committed BENCH_kernels.json gap).
template <class TV, class TW, class W, int KG>
inline void dot_many_group(const TV* __restrict v, std::ptrdiff_t ld,
                           const TW* __restrict w, std::ptrdiff_t i0, std::ptrdiff_t i1,
                           W* __restrict acc) {
  W a[KG];
  for (int j = 0; j < KG; ++j) a[j] = acc[j];
  for (std::ptrdiff_t i = i0; i < i1; ++i) {
    const W wi = static_cast<W>(w[i]);
    for (int j = 0; j < KG; ++j) a[j] += static_cast<W>(v[j * ld + i]) * wi;
  }
  for (int j = 0; j < KG; ++j) acc[j] = a[j];
}

/// Sequential dot_many over the index range [i0, i1): accumulates into
/// acc[j] (general path) or acc4[4j..4j+3] (half path), preserving
/// blas::dot's per-vector operation order.  `i1 - i0` must be a multiple
/// of 4 on the half path (callers peel the remainder).
template <class TV, class TW, class W>
inline void dot_many_range(const TV* __restrict v, std::ptrdiff_t ld, int k,
                           const TW* __restrict w, std::ptrdiff_t i0, std::ptrdiff_t i1,
                           W* __restrict acc) {
  for (std::ptrdiff_t t0 = i0; t0 < i1; t0 += kTile) {
    const std::ptrdiff_t t1 = std::min(t0 + kTile, i1);
    if constexpr (sizeof(TV) == 2 || sizeof(TW) == 2) {
      // Convert fp16 operands chunk-wise up front (exact, so the four-way
      // partial sums below are bit-identical to blas::dot's) — w's chunk
      // once per tile, each row's chunk once.
      W wbuf[kTile], vbufc[kTile];
      const std::ptrdiff_t len = t1 - t0;
      const W* __restrict wc = to_acc_chunk(w + t0, wbuf, len);
      for (int j = 0; j < k; ++j) {
        const TV* __restrict vj = v + static_cast<std::ptrdiff_t>(j) * ld;
        const W* __restrict vc = to_acc_chunk(vj + t0, vbufc, len);
        W s0 = acc[4 * j], s1 = acc[4 * j + 1], s2 = acc[4 * j + 2], s3 = acc[4 * j + 3];
        for (std::ptrdiff_t i = 0; i < len; i += 4) {
          s0 += vc[i] * wc[i];
          s1 += vc[i + 1] * wc[i + 1];
          s2 += vc[i + 2] * wc[i + 2];
          s3 += vc[i + 3] * wc[i + 3];
        }
        acc[4 * j] = s0;
        acc[4 * j + 1] = s1;
        acc[4 * j + 2] = s2;
        acc[4 * j + 3] = s3;
      }
    } else {
      // Greedy 8/4/2/1 register-blocked groups.  Grouping is numerically
      // free (each column keeps its own chain in its own i-order), so every
      // width runs fully unrolled — no dynamic-width tail kernel.
      int j0 = 0;
      for (; j0 + 8 <= k; j0 += 8)
        dot_many_group<TV, TW, W, 8>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
      if (k - j0 >= 4) {
        dot_many_group<TV, TW, W, 4>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
        j0 += 4;
      }
      if (k - j0 >= 2) {
        dot_many_group<TV, TW, W, 2>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
        j0 += 2;
      }
      if (k - j0 == 1)
        dot_many_group<TV, TW, W, 1>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
    }
  }
}

}  // namespace block_detail

/// out[j] = Σ_i V_j[i]·w[i] for j in [0, k).  V_j = v + j·ld; out has k
/// entries of the accumulator type (fp32 when either input is fp16).
/// One sweep over the k·n block instead of k launches re-reading w.
template <class TV, class TW>
void dot_many(const TV* v, std::ptrdiff_t ld, int k, std::span<const TW> w,
              acc_t<promote_t<TV, TW>>* out) {
  using W = acc_t<promote_t<TV, TW>>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  if (k <= 0) return;
  constexpr bool half_path = (sizeof(TV) == 2 || sizeof(TW) == 2);
  constexpr int lanes = half_path ? 4 : 1;
  const std::ptrdiff_t n4 = half_path ? n - (n % 4) : n;

  // Stack accumulators for the common case — the inner F3R levels call this
  // millions of times on short vectors, where a malloc would rival the
  // fork-join cost the fusion removes.
  W acc_stack[block_detail::kMaxStackK * 4];
  std::vector<W> acc_heap;
  W* acc = acc_stack;
  if (k > block_detail::kMaxStackK) {
    acc_heap.resize(static_cast<std::size_t>(k) * lanes);
    acc = acc_heap.data();
  }
  for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(k) * lanes; ++j) acc[j] = W{0};
#ifdef _OPENMP
  if (static_cast<std::ptrdiff_t>(k) * n > parallel_threshold() && n4 >= 4) {
    // Per-thread partials over 4-aligned chunks, combined in thread order:
    // deterministic for a fixed thread count, and identical to the serial
    // (= blas::dot single-thread) order when one thread runs.
    const int max_t = omp_get_max_threads();
    // Reusable team-wide scratch owned by the CALLING thread (grows, never
    // shrinks: no malloc per Arnoldi step).  The pointer must be hoisted
    // before the parallel region — naming `partial` inside it would resolve
    // to each worker's own (empty) thread_local instance; all workers have
    // to write through this one buffer, tid-offset, for the merge below.
    static thread_local std::vector<W> partial;
    partial.assign(static_cast<std::size_t>(max_t) * k * lanes, W{0});
    W* const part = partial.data();
    int used = 1;
#pragma omp parallel
    {
      const int nt = omp_get_num_threads();
      const int tid = omp_get_thread_num();
#pragma omp single
      used = nt;
      // ceil(n4/nt) rounded UP to a multiple of 4: chunks stay 4-aligned
      // for the fp16 unroll while the last chunk still reaches n4.
      const std::ptrdiff_t per = (((n4 + nt - 1) / nt) + 3) / 4 * 4;
      const std::ptrdiff_t i0 = std::min<std::ptrdiff_t>(per * tid, n4);
      const std::ptrdiff_t i1 = std::min<std::ptrdiff_t>(i0 + per, n4);
      if (i0 < i1)
        block_detail::dot_many_range<TV, TW, W>(
            v, ld, k, w.data(), i0, i1,
            part + static_cast<std::size_t>(tid) * k * lanes);
    }
    for (int t = 0; t < used; ++t)
      for (std::size_t j = 0; j < static_cast<std::size_t>(k) * lanes; ++j)
        acc[j] += part[static_cast<std::size_t>(t) * k * lanes + j];
  } else {
    block_detail::dot_many_range<TV, TW, W>(v, ld, k, w.data(), 0, n4, acc);
  }
#else
  block_detail::dot_many_range<TV, TW, W>(v, ld, k, w.data(), 0, n4, acc);
#endif

  if constexpr (half_path) {
    for (int j = 0; j < k; ++j) {
      const TV* vj = v + static_cast<std::ptrdiff_t>(j) * ld;
      W s0 = acc[4 * j];
      for (std::ptrdiff_t i = n4; i < n; ++i)
        s0 += static_cast<W>(vj[i]) * static_cast<W>(w[i]);
      out[j] = (s0 + acc[4 * j + 1]) + (acc[4 * j + 2] + acc[4 * j + 3]);
    }
  } else {
    for (int j = 0; j < k; ++j) out[j] = acc[j];
  }
}

/// w ±= Σ_j h[j]·V_j in one read-modify-write of w (`subtract` picks the
/// sign; Gram-Schmidt subtracts, the solution update adds).  The running
/// value is rounded to TW after every term, reproducing the k chained
/// axpy() stores bit-for-bit — element-local, so exact at any thread count.
template <class TV, class TW, class S>
void axpy_many(const TV* v, std::ptrdiff_t ld, int k, const S* h, std::span<TW> w,
               bool subtract = false) {
  using W = promote_t<promote_t<TV, TW>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  if (k <= 0) return;
  W a_stack[block_detail::kMaxStackK];
  std::vector<W> a_heap;
  W* a = a_stack;
  if (k > block_detail::kMaxStackK) {
    a_heap.resize(static_cast<std::size_t>(k));
    a = a_heap.data();
  }
  for (int j = 0; j < k; ++j) a[j] = subtract ? -static_cast<W>(h[j]) : static_cast<W>(h[j]);
  const W* __restrict ap = a;
  TW* __restrict wp = w.data();
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * n > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
    const std::ptrdiff_t len = std::min(t0 + block_detail::kTile, n) - t0;
    W buf[block_detail::kTile];
    if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
      half_to_float_n(wp + t0, buf, len);
    } else {
      for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] = static_cast<W>(wp[t0 + i]);
    }
    for (int j = 0; j < k; ++j) {
      const TV* __restrict vj = v + static_cast<std::ptrdiff_t>(j) * ld + t0;
      const W aj = ap[j];
      if constexpr (std::is_same_v<TW, W>) {
#pragma omp simd
        for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] += aj * static_cast<W>(vj[i]);
      } else {
        // TW narrower than the compute type: round after every term, as the
        // chained axpy() stores would.  fp16 conversions go through the
        // vectorized F16C helpers — GCC scalarizes _Float16 conversion
        // loops into serial vcvtsh2ss chains otherwise (see half.hpp).
        W vf[block_detail::kTile];
        const W* __restrict vc = to_acc_chunk(vj, vf, len);
        if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
          for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] += aj * vc[i];
          round_half_n(buf, len);
        } else {
          for (std::ptrdiff_t i = 0; i < len; ++i)
            buf[i] = static_cast<W>(static_cast<TW>(buf[i] + aj * vc[i]));
        }
      }
    }
    if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
      // buf already carries half-rounded values; this conversion is exact.
      float_to_half_n(buf, wp + t0, len);
    } else {
      for (std::ptrdiff_t i = 0; i < len; ++i) wp[t0 + i] = static_cast<TW>(buf[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS column kernels — the batched-solve hot path.
//
// A batched solver advances k independent right-hand sides in lockstep
// through k-column panels, column c contiguous at x + c·ld.  The kernels
// below fuse the k per-column BLAS-1 calls of one solver step into
// a single parallel region.  Element-local kernels (axpy_cols / axpby_cols)
// are bit-identical to the per-column blas1 calls they replace at any
// thread count; dot_cols reproduces the SERIAL blas::dot accumulation
// order per column exactly (each column is reduced by one thread), which
// is the deterministic contract the conformance tests pin.
//
// `active` (optional) masks columns out of the update entirely — a batched
// solver freezes a column the moment it converges or breaks down, and a
// frozen column's data must not be touched (it may hold non-finite values
// after a breakdown, so even a mathematically-neutral `+= 0·x` would
// corrupt it with NaNs).
// ---------------------------------------------------------------------------

/// Column-group width of the reduction kernels' stack accumulators; wider
/// batches are processed in groups (per-column results unaffected).
inline constexpr int kColsMax = 16;

namespace block_detail {

/// Multi-column dot core: per column c the accumulation order over i is
/// exactly single-threaded blas::dot's (single chain on the general path,
/// the four-way unroll on the fp16 path); on the general path the column
/// loop is innermost so the k independent chains advance together — the
/// reduction becomes throughput-bound instead of latency-bound.
/// Deliberately serial: determinism of the batched path must not depend on
/// the OpenMP team, and the reduction is a small slice of a batched solver
/// step.
template <class TX, class TY, class W, int KC>
inline void dot_cols_group(const TX* __restrict x, std::ptrdiff_t ldx,
                           const TY* __restrict y, std::ptrdiff_t ldy, int k_dyn,
                           std::ptrdiff_t nn, W* __restrict out) {
  const int k = KC > 0 ? KC : k_dyn;
  if constexpr (sizeof(TX) == 2 || sizeof(TY) == 2) {
    // fp16 operands: converting inside the arithmetic loop scalarizes into
    // a serial vcvtsh2ss chain under GCC 12 (~1 GB/s), so each column is
    // tile-converted through the vectorized F16C helpers first and the
    // four-lane chains accumulate on the converted chunks.  half→float
    // conversion is value-exact and kTile is a multiple of 4, so the lane
    // each element lands in (global i mod 4, tail to lane 0) — and hence
    // the result bits — are exactly blas::dot's.
    W xb[kTile], yb[kTile];
    for (int c = 0; c < k; ++c) {
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
      const TY* __restrict yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      W a0{}, a1{}, a2{}, a3{};
      for (std::ptrdiff_t t0 = 0; t0 < nn; t0 += kTile) {
        const std::ptrdiff_t len = std::min(t0 + kTile, nn) - t0;
        const W* __restrict xv = to_acc_chunk(xc + t0, xb, len);
        const W* __restrict yv = to_acc_chunk(yc + t0, yb, len);
        std::ptrdiff_t i = 0;
        for (; i + 4 <= len; i += 4) {
          a0 += xv[i] * yv[i];
          a1 += xv[i + 1] * yv[i + 1];
          a2 += xv[i + 2] * yv[i + 2];
          a3 += xv[i + 3] * yv[i + 3];
        }
        for (; i < len; ++i) a0 += xv[i] * yv[i];  // only the final tile is ragged
      }
      out[c] = (a0 + a1) + (a2 + a3);
    }
  } else {
    W acc[kColsMax] = {};
    for (std::ptrdiff_t i = 0; i < nn; ++i)
      for (int c = 0; c < k; ++c)
        acc[c] += static_cast<W>(x[c * ldx + i]) * static_cast<W>(y[c * ldy + i]);
    for (int c = 0; c < k; ++c) out[c] = acc[c];
  }
}

}  // namespace block_detail

/// out[c] = Σ_i x_c[i]·y_c[i] for c in [0, k).  Per column bit-identical
/// to SINGLE-THREADED blas::dot (including the four-way fp16 unroll) at
/// any k: only the schedule across columns differs.  Columns run in greedy
/// 16/8/4/2/1 groups, every width pinned at compile time (the odd widths a
/// compacted survivor set produces — 5, 7, 9, 17 — stay fully unrolled);
/// grouping never changes per-column results.  `active` masks columns out
/// entirely (their out[] untouched).
template <class TX, class TY>
void dot_cols(const TX* x, std::ptrdiff_t ldx, const TY* y, std::ptrdiff_t ldy, int k,
              std::size_t n, acc_t<promote_t<TX, TY>>* out,
              const unsigned char* active = nullptr) {
  using W = acc_t<promote_t<TX, TY>>;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  W grp[kColsMax];
  for (int c0 = 0; c0 < k;) {
    const int kc = greedy_group(k - c0, kColsMax);
    const TX* xg = x + static_cast<std::ptrdiff_t>(c0) * ldx;
    const TY* yg = y + static_cast<std::ptrdiff_t>(c0) * ldy;
    // Masked columns still participate in the sweep (their chains cost a
    // few registers, and compacting would change nothing numerically);
    // only the result store honors the mask.
    switch (kc) {
      case 1: block_detail::dot_cols_group<TX, TY, W, 1>(xg, ldx, yg, ldy, kc, nn, grp); break;
      case 2: block_detail::dot_cols_group<TX, TY, W, 2>(xg, ldx, yg, ldy, kc, nn, grp); break;
      case 3: block_detail::dot_cols_group<TX, TY, W, 3>(xg, ldx, yg, ldy, kc, nn, grp); break;
      case 4: block_detail::dot_cols_group<TX, TY, W, 4>(xg, ldx, yg, ldy, kc, nn, grp); break;
      case 8: block_detail::dot_cols_group<TX, TY, W, 8>(xg, ldx, yg, ldy, kc, nn, grp); break;
      case kColsMax:
        block_detail::dot_cols_group<TX, TY, W, kColsMax>(xg, ldx, yg, ldy, kc, nn, grp);
        break;
      default: block_detail::dot_cols_group<TX, TY, W, 0>(xg, ldx, yg, ldy, kc, nn, grp); break;
    }
    for (int c = 0; c < kc; ++c)
      if (active == nullptr || active[c0 + c]) out[c0 + c] = grp[c];
    c0 += kc;
  }
}

/// out[c] = ‖x_c‖₂ for c in [0, k): per column bit-identical to
/// single-threaded blas::nrm2 — the sum of squares goes through dot_cols'
/// multi-column sweep (x·x is nrm2's accumulation exactly, lane grouping
/// included), followed by the same double-rounded sqrt store.
template <class T>
void nrm2_cols(const T* x, std::ptrdiff_t ldx, int k, std::size_t n, acc_t<T>* out,
               const unsigned char* active = nullptr) {
  using W = acc_t<T>;
  W sq[kColsMax];
  for (int c0 = 0; c0 < k; c0 += kColsMax) {
    const int kc = std::min(k - c0, kColsMax);
    const T* xg = x + static_cast<std::ptrdiff_t>(c0) * ldx;
    dot_cols(xg, ldx, xg, ldx, kc, n, sq);
    for (int c = 0; c < kc; ++c)
      if (active == nullptr || active[c0 + c])
        out[c0 + c] = static_cast<W>(std::sqrt(static_cast<double>(sq[c])));
  }
}

/// y_c += alpha[c]·x_c for every unmasked column — k axpys in one parallel
/// region, each element rounded exactly as blas::axpy's store rounds it.
/// `ymap` (optional) is the compaction layer's active→original index map:
/// column c of X updates y column ymap[c] instead of c, so a compacted
/// panel can scatter into caller-side storage laid out at original column
/// positions without staging copies.
template <class TX, class TY, class S>
void axpy_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, TY* yp,
               std::ptrdiff_t ldy, int k, std::size_t n,
               const unsigned char* active = nullptr, const int* ymap = nullptr) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * len > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < len; t0 += block_detail::kTile) {
    const std::ptrdiff_t tl = std::min(t0 + block_detail::kTile, len) - t0;
    for (int c = 0; c < k; ++c) {
      if (active != nullptr && !active[c]) continue;
      const W a = static_cast<W>(alpha[c]);
      const std::ptrdiff_t yc_idx = ymap != nullptr ? ymap[c] : c;
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx + t0;
      TY* __restrict yc = yp + yc_idx * ldy + t0;
      if constexpr ((std::is_same_v<TX, half> || std::is_same_v<TY, half>) &&
                    std::is_same_v<W, float>) {
        float xb[block_detail::kTile], yb[block_detail::kTile], ob[block_detail::kTile];
        const float* xv = to_acc_chunk(xc, xb, tl);
        const float* yv = to_acc_chunk(yc, yb, tl);
        for (std::ptrdiff_t i = 0; i < tl; ++i) ob[i] = yv[i] + a * xv[i];
        if constexpr (std::is_same_v<TY, half>) {
          float_to_half_n(ob, yc, tl);
        } else {
          for (std::ptrdiff_t i = 0; i < tl; ++i) yc[i] = static_cast<TY>(ob[i]);
        }
      } else {
        for (std::ptrdiff_t i = 0; i < tl; ++i)
          yc[i] = static_cast<TY>(static_cast<W>(yc[i]) + a * static_cast<W>(xc[i]));
      }
    }
  }
}

/// y_c = alpha[c]·x_c + beta[c]·y_c for every unmasked column (the CG /
/// BiCGStab direction update, batched).  Element-local like blas::axpby.
template <class TX, class TY, class S>
void axpby_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, const S* beta, TY* yp,
                std::ptrdiff_t ldy, int k, std::size_t n,
                const unsigned char* active = nullptr) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * len > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < len; t0 += block_detail::kTile) {
    const std::ptrdiff_t tl = std::min(t0 + block_detail::kTile, len) - t0;
    for (int c = 0; c < k; ++c) {
      if (active != nullptr && !active[c]) continue;
      const W a = static_cast<W>(alpha[c]), b = static_cast<W>(beta[c]);
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx + t0;
      TY* __restrict yc = yp + static_cast<std::ptrdiff_t>(c) * ldy + t0;
      for (std::ptrdiff_t i = 0; i < tl; ++i)
        yc[i] = static_cast<TY>(a * static_cast<W>(xc[i]) + b * static_cast<W>(yc[i]));
    }
  }
}

/// y = α·x — fuses FGMRES's normalize-then-copy (scal + copy: two passes,
/// one of them read-modify-write) into a single streaming read and write.
/// Rounds α·x[i] to TY exactly as scal()'s store does.
template <class TX, class TY, class S>
void scal_copy(S alpha, std::span<const TX> x, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  const TX* __restrict xp = x.data();
  TY* __restrict yp = y.data();
  if constexpr ((std::is_same_v<TX, half> || std::is_same_v<TY, half>) &&
                std::is_same_v<W, float>) {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
      const std::ptrdiff_t len = std::min(t0 + block_detail::kTile, n) - t0;
      float xb[block_detail::kTile], yb[block_detail::kTile];
      const float* xc = to_acc_chunk(xp + t0, xb, len);
      for (std::ptrdiff_t i = 0; i < len; ++i) yb[i] = a * xc[i];
      if constexpr (std::is_same_v<TY, half>) {
        float_to_half_n(yb, yp + t0, len);
      } else {
        for (std::ptrdiff_t i = 0; i < len; ++i) yp[t0 + i] = static_cast<TY>(yb[i]);
      }
    }
  } else {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i)
      yp[i] = static_cast<TY>(a * static_cast<W>(xp[i]));
  }
}

// ---------------------------------------------------------------------------
// Non-finite guards — the resilience layer's cheap detection primitives.
//
// A NaN/Inf anywhere in a Krylov panel poisons every later iterate of its
// column, so the batched solvers scan (a) residual NORMS every iteration —
// free, the norm is already computed and a NaN input makes it NaN — and
// (b) incoming panels at wave boundaries via the scans below.  The scans
// are branch-light single passes (x − x == 0 is false exactly for NaN and
// ±Inf, and vectorizes; fp16 tests the exponent bits directly), orders of
// magnitude cheaper than one SpMV, and make no arithmetic change to any
// solver path: they only READ.
// ---------------------------------------------------------------------------

namespace block_detail {

inline bool finite_one(double v) { return v - v == 0.0; }
inline bool finite_one(float v) { return v - v == 0.0f; }
inline bool finite_one(half v) {
  // binary16: exponent all-ones ⇔ Inf/NaN.  Bit test avoids promoting
  // through arithmetic that could itself trap on signaling payloads.
  std::uint16_t bits;
  static_assert(sizeof(half) == sizeof(bits));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return (bits & 0x7C00u) != 0x7C00u;
}

}  // namespace block_detail

/// True iff any element of x is NaN or ±Inf.  One streaming pass; the
/// per-tile early-out keeps the poisoned-input case cheap without putting a
/// branch in the inner loop.
template <class T>
[[nodiscard]] bool has_nonfinite(std::span<const T> x) {
  const T* __restrict p = x.data();
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
    const std::ptrdiff_t t1 = std::min(t0 + block_detail::kTile, n);
    int bad = 0;
    for (std::ptrdiff_t i = t0; i < t1; ++i) bad |= !block_detail::finite_one(p[i]);
    if (bad != 0) return true;
  }
  return false;
}

/// Panel variant: scan columns [0, k) of a panel (column c at p + c·ld).
/// Returns the index of the first column containing a non-finite value,
/// or -1 when the whole panel is finite.
template <class T>
[[nodiscard]] int first_nonfinite_col(const T* p, std::ptrdiff_t ld, int k, std::size_t n) {
  for (int c = 0; c < k; ++c)
    if (has_nonfinite(std::span<const T>(p + static_cast<std::ptrdiff_t>(c) * ld, n)))
      return c;
  return -1;
}

}  // namespace nk::blas
