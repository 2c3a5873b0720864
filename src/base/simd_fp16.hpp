// Native AVX-512 FP16 kernels for the fp16 inner-level BLAS-1 operations,
// behind a runtime dispatch.
//
// The F16C paths in blas1.hpp convert 8 halves at a time to fp32, compute
// there, and convert back.  On an AVX-512 FP16 machine (Sapphire Rapids
// and later) the element-local kernels can instead run 32 lanes per
// instruction directly in binary16 (vmulph / vfmadd231ph), and the
// reductions can convert at ZMM width and accumulate in fp32 — twice the
// lane count of the F16C forms with fewer conversion instructions.
//
// Numerical tiers (documented, tested in simd_fp16_test.cpp):
//
//  * scal:  x[i] = a_h ⊗_h x[i]   — one binary16 rounding where the F16C
//    path computes in fp32 and rounds once at the store.  The two paths
//    agree within 1 ulp_h plus the rounding of α to binary16.
//  * axpy:  y[i] = fma_h(a_h, x[i], y[i]) — ONE binary16 rounding (fused)
//    where the F16C path rounds the fp32 result once.  Within 1 ulp_h of
//    the F16C result plus α's binary16 rounding.
//  * dot / nrm2: products exact in fp32 (half→float conversion is exact),
//    accumulated in fp32 like the reference — but across 32 SIMD lanes, so
//    the SUM is reassociated.  Same value class as any thread-count change
//    of the parallel reference; compared with an fp32-accumulation bound.
//
// Dispatch: enabled() requires (a) the translation unit to be compiled
// with -mavx512fp16 (via -march=native on such a machine), (b) the CPU to
// report the feature, and (c) the env knob NKRYLOV_AVX512FP16 to be set
// truthy.  DEFAULT OFF: the committed conformance baseline pins the F16C
// paths bit-for-bit, so the native paths are opt-in; F16C remains the
// fallback and the bench reference.
#pragma once

#include <cstddef>
#include <cstdlib>

#include "base/env.hpp"
#include "base/half.hpp"

#if defined(__AVX512FP16__)
#include <immintrin.h>
#endif

namespace nk::simd_fp16 {

/// True when this build carries the native AVX-512 FP16 kernel bodies.
[[nodiscard]] constexpr bool compiled() {
#if defined(__AVX512FP16__)
  return true;
#else
  return false;
#endif
}

/// True when the executing CPU reports the AVX512-FP16 feature.
[[nodiscard]] inline bool cpu_supported() {
#if defined(__AVX512FP16__)
  return __builtin_cpu_supports("avx512fp16") != 0;
#else
  return false;
#endif
}

/// Runtime dispatch gate: compiled + CPU + env opt-in (NKRYLOV_AVX512FP16
/// = 1|on|true|yes).  A malformed value warns once naming the variable and
/// value and keeps the default (off) — garbage no longer silently opts the
/// non-bit-identical native kernels in.  Cached after first call.
[[nodiscard]] inline bool enabled() {
  static const bool on = [] {
    const bool opted_in = env_flag("NKRYLOV_AVX512FP16", false);
    return compiled() && cpu_supported() && opted_in;
  }();
  return on;
}

#if defined(__AVX512FP16__)

/// x[i] = a ⊗_h x[i] over [0, n) — 32 binary16 multiplies per vmulph.
inline void scal_n(half a, half* x, std::ptrdiff_t n) {
  const __m512h va = _mm512_set1_ph(a);
  std::ptrdiff_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512h v = _mm512_loadu_ph(x + i);
    _mm512_storeu_ph(x + i, _mm512_mul_ph(v, va));
  }
  for (; i < n; ++i) x[i] = static_cast<half>(a * x[i]);
}

/// y[i] = fma_h(a, x[i], y[i]) over [0, n) — fused binary16 multiply-add.
inline void axpy_n(half a, const half* x, half* y, std::ptrdiff_t n) {
  const __m512h va = _mm512_set1_ph(a);
  std::ptrdiff_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512h vx = _mm512_loadu_ph(x + i);
    const __m512h vy = _mm512_loadu_ph(y + i);
    _mm512_storeu_ph(y + i, _mm512_fmadd_ph(va, vx, vy));
  }
  for (; i < n; ++i)
    y[i] = static_cast<half>(__builtin_fmaf16(a, x[i], y[i]));
}

/// Σ x[i]·y[i] accumulated in fp32 (exact half→float conversion at ZMM
/// width, fp32 FMA, 32-lane reassociated sum).
[[nodiscard]] inline float dot_n(const half* x, const half* y, std::ptrdiff_t n) {
  auto cvt = [](const half* p) {
    return _mm512_maskz_cvtph_ps(0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  };
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  std::ptrdiff_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(cvt(x + i), cvt(y + i), acc0);
    acc1 = _mm512_fmadd_ps(cvt(x + i + 16), cvt(y + i + 16), acc1);
  }
  // Lane sum in _mm512_reduce_add_ps's tree order (halves, quarters,
  // pairs), written out because GCC 12's intrinsic warns spuriously.
  alignas(64) float l[16];
  _mm512_store_ps(l, _mm512_add_ps(acc0, acc1));
  float q[4];
  for (int j = 0; j < 4; ++j) q[j] = (l[j + 12] + l[j + 4]) + (l[j + 8] + l[j]);
  float s = (q[0] + q[2]) + (q[1] + q[3]);
  for (; i < n; ++i) s += static_cast<float>(x[i]) * static_cast<float>(y[i]);
  return s;
}

#else

// Stubs so call sites compile on non-AVX-512-FP16 builds; enabled() is
// constant false there, so these are unreachable.
inline void scal_n(half, half*, std::ptrdiff_t) {}
inline void axpy_n(half, const half*, half*, std::ptrdiff_t) {}
[[nodiscard]] inline float dot_n(const half*, const half*, std::ptrdiff_t) { return 0.0f; }

#endif  // __AVX512FP16__

}  // namespace nk::simd_fp16
