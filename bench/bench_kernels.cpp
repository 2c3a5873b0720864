// Kernel microbenchmarks + fused-kernel verification — the perf-tracking
// bench behind BENCH_kernels.json.
//
// Measures, across the paper's precision combos (fp64 / fp32 / fp16 with
// fp32 accumulation):
//   * BLAS-1:  dot, axpy, and the fused blas_block kernels dot_many /
//              axpy_many / scal_copy against their unfused sequences
//   * Arnoldi: one full classical-Gram-Schmidt step (k projections +
//              corrections + normalize-copy), unfused blas1 sequence vs
//              the fused hot path FGMRES now runs
//   * SpMV:    CSR vs SELL-C (SIMD column-major) vs the pre-SIMD row-wise
//              SELL reference, on HPCG/HPGMP stencil matrices
//   * Batched solves: 8-RHS lockstep CG vs 8 sequential solves, and the
//              staggered-convergence 16-RHS CG/FGMRES benches comparing
//              active-set compaction against the masked-lockstep
//              reference (gated on bit-identical per-column iterates)
//
// Every fused kernel is checked against its unfused reference first; any
// disagreement beyond tolerance makes the binary exit non-zero (CI runs
// this as the perf-smoke job).  Results land in BENCH_kernels.json
// (schema nkrylov-bench-v1: name, n, nnz, seconds, GB/s); CI diffs the
// fused-vs-reference ratios against the committed copy via
// tools/bench_diff.py.
//
// Flags: --scale=N (problem size multiplier), --n=N (BLAS-1 length,
// default 100000·scale), --runs=R (min-of-R timing, default 5),
// --json=path (default BENCH_kernels.json).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"
#include "base/simd_fp16.hpp"
#include "base/timer.hpp"
#include "backend/kernels.hpp"
#include "bench_common.hpp"
#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "core/service/executor.hpp"
#include "core/session.hpp"
#include "core/tune/features.hpp"
#include "core/tune/perf_db.hpp"
#include "core/tune/shortlist.hpp"
#include "krylov/cg.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/operator.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/jacobi.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/gen/suite_standins.hpp"
#include "sparse/scaling.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

using namespace nk;

namespace {

int g_runs = 5;
bool g_all_ok = true;

/// Min-of-runs wall time of one invocation of `fn` (one untimed warmup).
template <class Fn>
double time_min(Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < g_runs; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Record a fused-vs-reference agreement check; failures flip the exit code.
void check(const std::string& what, double max_abs_diff, double tol) {
  if (!(max_abs_diff <= tol) || !std::isfinite(max_abs_diff)) {
    std::cerr << "VERIFY FAIL: " << what << " max|diff|=" << max_abs_diff
              << " tol=" << tol << "\n";
    g_all_ok = false;
  }
}

template <class T>
const char* tname() {
  if constexpr (std::is_same_v<T, double>) return "fp64";
  else if constexpr (std::is_same_v<T, float>) return "fp32";
  else return "fp16";
}

/// Agreement tolerance for values of magnitude ~`scale` computed in T's
/// accumulator precision.
template <class T>
double tol_for(double scale) {
  const double eps = std::is_same_v<T, double> ? 1e-12 : 1e-5;  // fp16 accumulates fp32
  return eps * std::max(1.0, scale);
}

// ---------------------------------------------------------------------------
// BLAS-1 + fused-kernel benches (one precision)
// ---------------------------------------------------------------------------

template <class T>
void bench_blas1(bench::JsonReport& rep, std::int64_t n) {
  const int k = 8;  // basis size of the paper's second F3R level
  const auto nn = static_cast<std::size_t>(n);
  const auto xd = random_vector<double>(nn * static_cast<std::size_t>(k + 1), 11, -1.0, 1.0);
  std::vector<T> vbuf = converted<T>(xd);                 // k basis rows + spare
  std::vector<T> w = converted<T>(random_vector<double>(nn, 12, -1.0, 1.0));
  std::vector<T> vnext(nn);
  using S = acc_t<T>;
  std::vector<S> h(static_cast<std::size_t>(k), S{0});
  // Tiny coefficients keep repeated unrestored axpy applications bounded.
  for (int j = 0; j < k; ++j) h[static_cast<std::size_t>(j)] = static_cast<S>(1e-8 * (j + 1));
  std::vector<S> dots(static_cast<std::size_t>(k)), dots_ref(static_cast<std::size_t>(k));
  const std::string p = tname<T>();
  const double vec_bytes = static_cast<double>(n) * sizeof(T);

  auto vrow = [&](int j) {
    return std::span<const T>(vbuf.data() + static_cast<std::size_t>(j) * nn, nn);
  };

  // --- verification -------------------------------------------------------
  blas::dot_many(vbuf.data(), n, k, std::span<const T>(w), dots.data());
  for (int j = 0; j < k; ++j) dots_ref[j] = blas::dot(vrow(j), std::span<const T>(w));
  double dmax = 0.0;
  for (int j = 0; j < k; ++j)
    dmax = std::max(dmax, std::abs(static_cast<double>(dots[j]) - static_cast<double>(dots_ref[j])));
  check("dot_many_" + p, dmax, tol_for<T>(static_cast<double>(n)));

  {
    std::vector<T> wf = w, wu = w;
    blas::axpy_many(vbuf.data(), n, k, h.data(), std::span<T>(wf), /*subtract=*/true);
    for (int j = 0; j < k; ++j) blas::axpy(-h[j], vrow(j), std::span<T>(wu));
    double amax = 0.0;
    for (std::size_t i = 0; i < nn; ++i)
      amax = std::max(amax, std::abs(static_cast<double>(wf[i]) - static_cast<double>(wu[i])));
    check("axpy_many_" + p, amax, 0.0);  // element-local chains: bit-exact

    std::vector<T> sc(nn), su = w;
    blas::scal_copy(S{2} / S{3}, std::span<const T>(w), std::span<T>(sc));
    blas::scal(S{2} / S{3}, std::span<T>(su));
    double smax = 0.0;
    for (std::size_t i = 0; i < nn; ++i)
      smax = std::max(smax, std::abs(static_cast<double>(sc[i]) - static_cast<double>(su[i])));
    check("scal_copy_" + p, smax, 0.0);  // same per-element op: bit-exact
  }

  // --- timing -------------------------------------------------------------
  double s = time_min([&] {
    auto d = blas::dot(vrow(0), std::span<const T>(w));
    asm volatile("" ::"r"(&d) : "memory");
  });
  rep.add("dot_" + p, n, 0, s, 2 * vec_bytes / s / 1e9);

  s = time_min([&] {
    blas::dot_many(vbuf.data(), n, k, std::span<const T>(w), dots.data());
    asm volatile("" ::"r"(dots.data()) : "memory");
  });
  rep.add("dot_many_" + p + "_k8", n, 0, s, (k + 1) * vec_bytes / s / 1e9);

  s = time_min([&] {
    for (int j = 0; j < k; ++j) dots_ref[j] = blas::dot(vrow(j), std::span<const T>(w));
    asm volatile("" ::"r"(dots_ref.data()) : "memory");
  });
  rep.add("dot_x8_" + p, n, 0, s, 2 * k * vec_bytes / s / 1e9);

  s = time_min([&] {
    blas::axpy_many(vbuf.data(), n, k, h.data(), std::span<T>(w), true);
    asm volatile("" ::"r"(w.data()) : "memory");
  });
  rep.add("axpy_many_" + p + "_k8", n, 0, s, (k + 2) * vec_bytes / s / 1e9);

  s = time_min([&] {
    for (int j = 0; j < k; ++j) blas::axpy(-h[j], vrow(j), std::span<T>(w));
    asm volatile("" ::"r"(w.data()) : "memory");
  });
  rep.add("axpy_x8_" + p, n, 0, s, 3 * k * vec_bytes / s / 1e9);

  s = time_min([&] {
    blas::scal_copy(S{2} / S{3}, std::span<const T>(w), std::span<T>(vnext));
    asm volatile("" ::"r"(vnext.data()) : "memory");
  });
  rep.add("scal_copy_" + p, n, 0, s, 2 * vec_bytes / s / 1e9);

  s = time_min([&] {
    blas::scal(S{1.0000001}, std::span<T>(w));
    blas::copy(std::span<const T>(w), std::span<T>(vnext));
    asm volatile("" ::"r"(vnext.data()) : "memory");
  });
  rep.add("scal_plus_copy_" + p, n, 0, s, 4 * vec_bytes / s / 1e9);

  // --- dot_cols: pairwise column dots over a panel ------------------------
  // vbuf doubles as the X panel (column j contiguous at j·nn); Y is an
  // independent panel.
  {
    const std::vector<T> ybuf =
        converted<T>(random_vector<double>(nn * static_cast<std::size_t>(k), 13, -1.0, 1.0));
    const auto ldn = static_cast<std::ptrdiff_t>(nn);
    std::vector<S> cd(static_cast<std::size_t>(k)), cd_ref(static_cast<std::size_t>(k));

    blas::dot_cols(vbuf.data(), ldn, ybuf.data(), ldn, k, nn, cd.data());
    for (int j = 0; j < k; ++j)
      cd_ref[j] = blas::dot(vrow(j), std::span<const T>(ybuf.data() + static_cast<std::size_t>(j) * nn, nn));
    double cmax = 0.0;
    for (int j = 0; j < k; ++j)
      cmax = std::max(cmax, std::abs(static_cast<double>(cd[j]) - static_cast<double>(cd_ref[j])));
    check("dot_cols_" + p, cmax, tol_for<T>(static_cast<double>(n)));


    s = time_min([&] {
      blas::dot_cols(vbuf.data(), ldn, ybuf.data(), ldn, k, nn, cd.data());
      asm volatile("" ::"r"(cd.data()) : "memory");
    });
    rep.add("dot_cols_" + p + "_k8", n, 0, s, 2 * k * vec_bytes / s / 1e9);
  }
}

// ---------------------------------------------------------------------------
// Fused vs unfused Arnoldi step (the FGMRES inner loop at j = k-1)
// ---------------------------------------------------------------------------

template <class T>
void bench_arnoldi_step(bench::JsonReport& rep, std::int64_t n) {
  const int k = 8;
  const auto nn = static_cast<std::size_t>(n);
  using S = acc_t<T>;
  std::vector<T> vbuf =
      converted<T>(random_vector<double>(nn * static_cast<std::size_t>(k), 21, -1.0, 1.0));
  const std::vector<T> w0 = converted<T>(random_vector<double>(nn, 22, -1.0, 1.0));
  std::vector<T> w(nn), vnext(nn);
  std::vector<S> h(static_cast<std::size_t>(k));
  const std::string p = tname<T>();
  auto vrow = [&](int j) {
    return std::span<const T>(vbuf.data() + static_cast<std::size_t>(j) * nn, nn);
  };

  // Both variants restore w from w0 inside the timed region (the projection
  // drives ‖w‖ toward 0, so an unrestored steady state would hit 1/‖w‖
  // blowups); the restore cost is identical on both sides.
  const double s_unfused = time_min([&] {
    blas::copy(std::span<const T>(w0), std::span<T>(w));
    for (int j = 0; j < k; ++j) h[j] = blas::dot(vrow(j), std::span<const T>(w));
    for (int j = 0; j < k; ++j) blas::axpy(-h[j], vrow(j), std::span<T>(w));
    const S hj1 = blas::nrm2(std::span<const T>(w));
    blas::scal(S{1} / hj1, std::span<T>(w));
    blas::copy(std::span<const T>(w), std::span<T>(vnext));
    asm volatile("" ::"r"(vnext.data()) : "memory");
  });
  rep.add("arnoldi_step_unfused_" + p + "_k8", n, 0, s_unfused, 0.0);

  const double s_fused = time_min([&] {
    blas::copy(std::span<const T>(w0), std::span<T>(w));
    blas::dot_many(vbuf.data(), n, k, std::span<const T>(w), h.data());
    blas::axpy_many(vbuf.data(), n, k, h.data(), std::span<T>(w), /*subtract=*/true);
    const S hj1 = blas::nrm2(std::span<const T>(w));
    blas::scal_copy(S{1} / hj1, std::span<const T>(w), std::span<T>(vnext));
    asm volatile("" ::"r"(vnext.data()) : "memory");
  });
  rep.add("arnoldi_step_fused_" + p + "_k8", n, 0, s_fused, 0.0);

  std::cout << "arnoldi step (" << p << ", n=" << n << ", k=8): unfused "
            << s_unfused * 1e6 << " us, fused " << s_fused * 1e6 << " us  ("
            << s_unfused / s_fused << "x)\n";
}

// ---------------------------------------------------------------------------
// AVX-512 FP16: native binary16 kernels vs the F16C dispatch path
// ---------------------------------------------------------------------------
//
// The scal_fp16 / axpy_fp16 records time whatever blas:: dispatches to
// (F16C unless NKRYLOV_AVX512FP16 opts the native paths in — see
// base/simd_fp16.hpp); the *_avx512fp16 records call the native kernels
// directly, so each pair measures the native advantage with F16C as the
// committed reference.  Native records are emitted only when the build and
// CPU carry the feature; tools/bench_diff.py skips pairs absent from both
// the fresh run and the baseline.

void bench_fp16_native(bench::JsonReport& rep, std::int64_t n) {
  const auto nn = static_cast<std::size_t>(n);
  const double vec_bytes = static_cast<double>(n) * sizeof(half);
  const std::vector<half> x0 = converted<half>(random_vector<double>(nn, 61, -1.0, 1.0));
  const std::vector<half> y0 = converted<half>(random_vector<double>(nn, 62, -1.0, 1.0));
  // Both exactly representable in binary16, so the F16C path (fp32 compute,
  // one rounding at the store) and the native path (binary16 compute)
  // differ by at most 1 ulp_h — the tier simd_fp16.hpp documents, with no
  // extra alpha-rounding term.
  const float as = 0.75f, aa = 0.125f;

  std::vector<half> xb = x0, yb = y0;
  double s = time_min([&] {
    blas::scal(as, std::span<half>(xb));
    asm volatile("" ::"r"(xb.data()) : "memory");
  });
  rep.add("scal_fp16", n, 0, s, 2 * vec_bytes / s / 1e9);

  s = time_min([&] {
    blas::axpy(aa, std::span<const half>(x0), std::span<half>(yb));
    asm volatile("" ::"r"(yb.data()) : "memory");
  });
  rep.add("axpy_fp16", n, 0, s, 3 * vec_bytes / s / 1e9);

  if (!simd_fp16::compiled() || !simd_fp16::cpu_supported()) {
    std::cout << "fp16 native kernels: avx512fp16 "
              << (simd_fp16::compiled() ? "unsupported by this CPU" : "not compiled in")
              << "; skipping *_avx512fp16 records\n";
    return;
  }

  // Verify each native kernel against the dispatch path on fresh copies
  // (identical when NKRYLOV_AVX512FP16 routes blas:: to the same kernels).
  const double ulp_h = 2e-3;  // 1 ulp_h at magnitude <= 2, with headroom
  {
    std::vector<half> xr = x0, xn = x0;
    blas::scal(as, std::span<half>(xr));
    simd_fp16::scal_n(static_cast<half>(as), xn.data(), n);
    double d = 0.0;
    for (std::size_t i = 0; i < nn; ++i)
      d = std::max(d, std::abs(static_cast<double>(xn[i]) - static_cast<double>(xr[i])));
    check("scal_fp16_avx512fp16", d, ulp_h);

    std::vector<half> yr = y0, yn = y0;
    blas::axpy(aa, std::span<const half>(x0), std::span<half>(yr));
    simd_fp16::axpy_n(static_cast<half>(aa), x0.data(), yn.data(), n);
    d = 0.0;
    for (std::size_t i = 0; i < nn; ++i)
      d = std::max(d, std::abs(static_cast<double>(yn[i]) - static_cast<double>(yr[i])));
    check("axpy_fp16_avx512fp16", d, ulp_h);

    const float dn = simd_fp16::dot_n(x0.data(), y0.data(), n);
    const float dr = blas::dot(std::span<const half>(x0), std::span<const half>(y0));
    check("dot_fp16_avx512fp16", std::abs(static_cast<double>(dn) - static_cast<double>(dr)),
          tol_for<half>(static_cast<double>(n)));
  }

  const half ash = static_cast<half>(as), aah = static_cast<half>(aa);
  s = time_min([&] {
    simd_fp16::scal_n(ash, xb.data(), n);
    asm volatile("" ::"r"(xb.data()) : "memory");
  });
  rep.add("scal_fp16_avx512fp16", n, 0, s, 2 * vec_bytes / s / 1e9);

  s = time_min([&] {
    simd_fp16::axpy_n(aah, x0.data(), yb.data(), n);
    asm volatile("" ::"r"(yb.data()) : "memory");
  });
  rep.add("axpy_fp16_avx512fp16", n, 0, s, 3 * vec_bytes / s / 1e9);

  s = time_min([&] {
    auto d = simd_fp16::dot_n(x0.data(), y0.data(), n);
    asm volatile("" ::"r"(&d) : "memory");
  });
  rep.add("dot_fp16_avx512fp16", n, 0, s, 2 * vec_bytes / s / 1e9);
}

// ---------------------------------------------------------------------------
// SpMV: CSR vs SELL-C SIMD vs row-wise SELL reference
// ---------------------------------------------------------------------------

template <class MT, class XT>
void bench_spmv_combo(bench::JsonReport& rep, const std::string& mat_name,
                      const CsrMatrix<MT>& a, const SellMatrix<MT>& s,
                      std::span<const XT> x, const CsrMatrix<double>& a64) {
  const auto n = static_cast<std::int64_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const auto nn = static_cast<std::size_t>(a.nrows);
  std::vector<XT> yc(nn), ys(nn), yr(nn);
  const std::string combo =
      std::string(tname<MT>()) + (std::is_same_v<MT, XT> ? "" : std::string("_") + tname<XT>());
  const std::string suffix = combo + "/" + mat_name;

  // Verify: SELL (SIMD and row-wise) against CSR, in fp64 ground truth.
  spmv(a, x, std::span<XT>(yc));
  spmv(s, x, std::span<XT>(ys));
  spmv_rowwise(s, x, std::span<XT>(yr));
  std::vector<double> truth(nn);
  spmv(a64, std::span<const XT>(x), std::span<double>(truth));
  double row_norm = 0.0;  // ~max |row dot| scale for the tolerance
  for (std::size_t i = 0; i < nn; ++i) row_norm = std::max(row_norm, std::abs(truth[i]));
  double dsell = 0.0, drow = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    dsell = std::max(dsell, std::abs(static_cast<double>(ys[i]) - static_cast<double>(yc[i])));
    drow = std::max(drow, std::abs(static_cast<double>(yr[i]) - static_cast<double>(ys[i])));
  }
  const double eps = sizeof(MT) == 2 || sizeof(XT) == 2
                         ? (std::is_same_v<XT, half> ? 5e-2 : 1e-3)
                         : (std::is_same_v<MT, float> ? 1e-4 : 1e-11);
  check("spmv_sell_vs_csr_" + suffix, dsell, eps * std::max(1.0, row_norm));
  check("spmv_sell_simd_vs_rowwise_" + suffix, drow, eps * std::max(1.0, row_norm));

  const double csr_bytes = static_cast<double>(nnz) * (sizeof(MT) + 4.0);
  const double sell_bytes = static_cast<double>(s.padded_nnz()) * (sizeof(MT) + 4.0);

  double t = time_min([&] {
    spmv(a, x, std::span<XT>(yc));
    asm volatile("" ::"r"(yc.data()) : "memory");
  });
  rep.add("spmv_csr_" + suffix, n, nnz, t, csr_bytes / t / 1e9);

  t = time_min([&] {
    spmv(s, x, std::span<XT>(ys));
    asm volatile("" ::"r"(ys.data()) : "memory");
  });
  rep.add("spmv_sell_" + suffix, n, nnz, t, sell_bytes / t / 1e9);
  const double t_simd = t;

  t = time_min([&] {
    spmv_rowwise(s, x, std::span<XT>(yr));
    asm volatile("" ::"r"(yr.data()) : "memory");
  });
  rep.add("spmv_sell_rowwise_" + suffix, n, nnz, t, sell_bytes / t / 1e9);
  std::cout << "spmv " << suffix << " (n=" << n << "): sell simd " << t_simd * 1e6
            << " us vs rowwise " << t * 1e6 << " us (" << t / t_simd << "x)\n";
}

// ---------------------------------------------------------------------------
// SpMM: one batched sweep vs k separate SpMVs (the batched-solve kernel)
// ---------------------------------------------------------------------------

template <class MT, class XT>
void bench_spmm_combo(bench::JsonReport& rep, const std::string& mat_name,
                      const CsrMatrix<MT>& a, const SellMatrix<MT>& s, int k) {
  const auto n = static_cast<std::int64_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const auto nn = static_cast<std::size_t>(a.nrows);
  const std::string combo =
      std::string(tname<MT>()) + (std::is_same_v<MT, XT> ? "" : std::string("_") + tname<XT>());
  const std::string suffix = combo + "_k" + std::to_string(k) + "/" + mat_name;
  const auto xd = random_vector<double>(nn * static_cast<std::size_t>(k), 71, -1.0, 1.0);
  std::vector<XT> x(xd.size());
  for (std::size_t i = 0; i < xd.size(); ++i) x[i] = static_cast<XT>(xd[i]);
  std::vector<XT> y(nn * static_cast<std::size_t>(k)), yref(nn);

  // Verify: spmm column c must equal spmv on column c — bit-for-bit except
  // fp16 storage with wider vectors on FMA targets without the AVX-512 row
  // kernels, where compiler FMA-contraction freedom across the two loop
  // shapes leaves fp32-rounding-level differences (see spmm.hpp).
  spmm(a, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
       static_cast<std::ptrdiff_t>(nn), k);
  double dmax = 0.0, yscale = 0.0;
  for (int c = 0; c < k; ++c) {
    spmv(a, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
         std::span<XT>(yref));
    for (std::size_t i = 0; i < nn; ++i) {
      dmax = std::max(dmax,
                      std::abs(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]) -
                               static_cast<double>(yref[i])));
      yscale = std::max(yscale, std::abs(static_cast<double>(yref[i])));
    }
  }
#if defined(__FMA__) && !defined(NKRYLOV_FP16_ROWS_AVX512)
  const double csr_tol = (sizeof(MT) == 2 && !std::is_same_v<MT, XT>)
                             ? 1e-5 * std::max(1.0, yscale)
                             : 0.0;
#else
  const double csr_tol = 0.0;
#endif
  check("spmm_csr_vs_spmv_" + suffix, dmax, csr_tol);

  spmm(s, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
       static_cast<std::ptrdiff_t>(nn), k);
  dmax = 0.0;
  for (int c = 0; c < k; ++c) {
    spmv(s, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
         std::span<XT>(yref));
    for (std::size_t i = 0; i < nn; ++i)
      dmax = std::max(dmax,
                      std::abs(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]) -
                               static_cast<double>(yref[i])));
  }
  check("spmm_sell_vs_spmv_" + suffix, dmax, 0.0);

  // Timing: the batched sweep reads A once; the k-SpMV loop reads it k
  // times.  GB/s uses actual traffic, so the speedup shows as bandwidth.
  const double csr_bytes =
      static_cast<double>(nnz) * (sizeof(MT) + 4.0) + 2.0 * k * n * sizeof(XT);
  double t = time_min([&] {
    spmm(a, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
         static_cast<std::ptrdiff_t>(nn), k);
    asm volatile("" ::"r"(y.data()) : "memory");
  });
  rep.add("spmm_csr_" + suffix, n, nnz, t, csr_bytes / t / 1e9);
  const double t_spmm = t;

  t = time_min([&] {
    for (int c = 0; c < k; ++c)
      spmv(a, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
           std::span<XT>(y.data() + static_cast<std::size_t>(c) * nn, nn));
    asm volatile("" ::"r"(y.data()) : "memory");
  });
  rep.add("spmv_x" + std::to_string(k) + "_csr_" + suffix, n, nnz, t,
          (static_cast<double>(nnz) * (sizeof(MT) + 4.0) * k + 2.0 * k * n * sizeof(XT)) /
              t / 1e9);
  std::cout << "spmm csr " << suffix << ": batched " << t_spmm * 1e6 << " us vs " << k
            << " spmv " << t * 1e6 << " us (" << t / t_spmm << "x)\n";

  t = time_min([&] {
    spmm(s, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
         static_cast<std::ptrdiff_t>(nn), k);
    asm volatile("" ::"r"(y.data()) : "memory");
  });
  rep.add("spmm_sell_" + suffix, n, nnz, t,
          (static_cast<double>(s.padded_nnz()) * (sizeof(MT) + 4.0) +
           2.0 * k * n * sizeof(XT)) / t / 1e9);
}

void bench_spmm(bench::JsonReport& rep, const std::string& mat_name,
                const CsrMatrix<double>& a64) {
  const auto a32 = cast_matrix<float>(a64);
  const auto a16 = cast_matrix<half>(a64);
  const auto s64 = csr_to_sell(a64, 32);
  const auto s32 = csr_to_sell(a32, 32);
  const auto s16 = csr_to_sell(a16, 32);
  bench_spmm_combo<double, double>(rep, mat_name, a64, s64, 8);
  bench_spmm_combo<float, float>(rep, mat_name, a32, s32, 8);
  bench_spmm_combo<half, float>(rep, mat_name, a16, s16, 8);
}

// ---------------------------------------------------------------------------
// Batched multi-RHS solve: 8 RHS through one CG in lockstep vs 8 sequential
// solves (the ISSUE 3 acceptance benchmark: >= 1.5x on the n = 100k
// Laplace problem, with per-column agreement)
// ---------------------------------------------------------------------------

void bench_batched_solve(bench::JsonReport& rep, std::int64_t n_target) {
  const auto side = static_cast<index_t>(std::llround(std::sqrt(static_cast<double>(n_target))));
  CsrMatrix<double> a = gen::laplace2d(side, side);
  a.sort_rows();
  diagonal_scale_symmetric(a);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const int k = 8;
  BlockJacobiIlu0 ilu(a, BlockJacobiIlu0::Config{64, 1.0});

  std::vector<double> B(n * k);
  for (int c = 0; c < k; ++c) {
    const auto col = random_vector<double>(n, 900 + static_cast<std::uint64_t>(c), 0.0, 1.0);
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::size_t>(c) * n);
  }
  CgSolver<double>::Config cfg;
  cfg.rtol = 1e-8;
  cfg.max_iters = 1000;

  // Sequential: k independent solves, each paying its own matrix sweeps.
  std::vector<double> Xs(n * k, 0.0);
  CsrOperator<double, double> op_s(a);
  auto h_s = ilu.make_apply<double>(Prec::FP64);
  CgSolver<double> seq(op_s, *h_s, cfg);
  int iters_seq = 0;
  WallTimer ts;
  for (int c = 0; c < k; ++c) {
    auto r = seq.solve(std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
                       std::span<double>(Xs.data() + static_cast<std::size_t>(c) * n, n));
    iters_seq += r.iterations;
    if (!r.converged) check("batched_cg_seq_converged", 1.0, 0.0);
  }
  const double t_seq = ts.seconds();
  rep.add("solve_cg_seq_8rhs_laplace", static_cast<std::int64_t>(n), nnz, t_seq, 0.0);

  // Batched: one lockstep solve sharing every matrix and factor sweep,
  // unguarded (A) and with guard_panels (B).  Both solvers draw the same
  // buffers from one workspace and share A, M and X, so the guard is the
  // only difference.  The pair runs --runs times, AB then BA alternately,
  // so machine drift hits both halves of a pair alike.  The batched record
  // is the median A time; the guard gate (bench_diff.py GUARD_PAIRS, <= 2%)
  // reads the MEDIAN of the per-pair B/A ratios, so the guarded record is
  // stored as that ratio times the batched median.
  std::vector<double> Xb(n * k, 0.0);
  CsrOperator<double, double> op_b(a);
  auto h_b = ilu.make_apply<double>(Prec::FP64);
  SolverWorkspace ws;
  CgSolver<double> bat(cfg, &ws, "cg");
  bat.setup(op_b, *h_b);
  CgSolver<double>::Config cfg_g = cfg;
  cfg_g.guard_panels = true;
  CgSolver<double> gua(cfg_g, &ws, "cg");
  gua.setup(op_b, *h_b);
  std::vector<SolveResult> many, many_g;
  auto timed_solve = [&](CgSolver<double>& s, std::vector<SolveResult>& res) {
    std::fill(Xb.begin(), Xb.end(), 0.0);
    WallTimer t;
    res = s.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), Xb.data(),
                       static_cast<std::ptrdiff_t>(n), k);
    return t.seconds();
  };
  int guard_failures = 0;
  std::vector<double> t_un, ratios;
  for (int r = 0; r < std::max(g_runs, 1); ++r) {
    double tu = 0.0, tg = 0.0;
    if (r % 2 == 0) {
      tu = timed_solve(bat, many);
      tg = timed_solve(gua, many_g);
    } else {
      tg = timed_solve(gua, many_g);
      tu = timed_solve(bat, many);
    }
    t_un.push_back(tu);
    ratios.push_back(tg / tu);
    for (int c = 0; c < k; ++c)
      if (many_g[c].status != SolveStatus::kConverged) ++guard_failures;
  }
  check("batched_cg_guard_converged", static_cast<double>(guard_failures), 0.0);
  const double t_bat = median(t_un);
  const double overhead = median(ratios);
  rep.add("solve_cg_batched_8rhs_laplace", static_cast<std::int64_t>(n), nnz, t_bat, 0.0);
  rep.add("solve_cg_batched_8rhs_speedup", static_cast<std::int64_t>(n), nnz, t_bat,
          t_seq / t_bat);  // gbps column doubles as the speedup ratio
  rep.add("solve_cg_batched_8rhs_guard_laplace", static_cast<std::int64_t>(n), nnz,
          t_bat * overhead, 0.0);
  rep.add("solve_cg_guard_overhead", static_cast<std::int64_t>(n), nnz, t_bat * overhead,
          overhead);  // gbps column doubles as the median overhead ratio

  // Per-column agreement between the two paths (the last batched run; the
  // guard changes no arithmetic, so Xb holds the batched solution whichever
  // of the pair ran last).  Identical kernels per column ⇒ identical
  // iterates; allow ulp-level slack only for the multi-threaded reductions.
  int iters_bat = 0;
  double dmax = 0.0, xscale = 0.0;
  for (int c = 0; c < k; ++c) {
    iters_bat += many[c].iterations;
    if (!many[c].converged) check("batched_cg_bat_converged", 1.0, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      dmax = std::max(dmax, std::abs(Xb[static_cast<std::size_t>(c) * n + i] -
                                     Xs[static_cast<std::size_t>(c) * n + i]));
      xscale = std::max(xscale, std::abs(Xs[static_cast<std::size_t>(c) * n + i]));
    }
  }
  // Single-threaded the two paths are bit-identical; with parallel blas1
  // reductions each path rounds differently, and two independently
  // converged solutions only agree to convergence level.
  check("batched_cg_column_agreement", dmax,
        (num_threads() == 1 ? 0.0 : 1e-5 * std::max(1.0, xscale)));
  check("batched_cg_iteration_agreement", std::abs(iters_bat - iters_seq),
        num_threads() == 1 ? 0.0 : std::max(2.0 * k, 0.05 * iters_seq));

  std::cout << "batched CG 8 RHS (n=" << n << ", bj-ilu0): sequential " << t_seq
            << " s vs batched " << t_bat << " s  (" << t_seq / t_bat << "x, "
            << iters_seq << "/" << iters_bat << " iters)\n";
  std::cout << "guarded batched CG 8 RHS: median " << overhead << "x of unguarded over "
            << ratios.size() << " AB/BA pairs (range "
            << *std::min_element(ratios.begin(), ratios.end()) << "–"
            << *std::max_element(ratios.begin(), ratios.end()) << ")\n";
}

// ---------------------------------------------------------------------------
// Staggered-convergence batched solve: active-set compaction vs the PR 3
// masked-lockstep reference (the ISSUE 4 acceptance benchmark: >= 1.15x
// with bit-identical per-column fp64 iterates).
//
// The HPCG 27-point stencil is 27·I − S⊗S⊗S (S = 1-D tridiag(1,1,1)), so
// its eigenvectors are product sines, and a RHS spanning s eigenvectors
// with distinct eigenvalues exhausts its Krylov space after ~s steps — the
// 16 columns are engineered to retire in three waves at 1x / 2x / 4x the
// median iteration count.  The masked path pays (nearly) full width until
// the last wave finishes (full-width reductions, per-column apply
// fallback); the compacting path shrinks every kernel to the live width
// as columns retire.  The 27-point stencil makes the benchmark
// apply-dominated — the regime batching targets.
// ---------------------------------------------------------------------------

/// RHS spanning s (p,p,p) modes of the (scaled) 27-point operator, spread
/// across the spectrum (well-separated eigenvalues keep finite-precision
/// CG/Arnoldi terminating near the exact Krylov degree s; tightly
/// clustered consecutive modes would smear the retirement point).
std::vector<double> mode_rhs(index_t side, int s) {
  const std::size_t n = static_cast<std::size_t>(side) * side * side;
  std::vector<double> b(n, 0.0);
  const int step = std::max(1, static_cast<int>(side - 1) / s);
  std::vector<double> sines(static_cast<std::size_t>(side));
  for (int j = 0; j < s; ++j) {
    const int p = 1 + j * step;
    for (index_t i = 0; i < side; ++i)
      sines[i] = std::sin(M_PI * p * (i + 1.0) / (side + 1));
    for (index_t z = 0; z < side; ++z)
      for (index_t y = 0; y < side; ++y)
        for (index_t x = 0; x < side; ++x)
          b[(static_cast<std::size_t>(z) * side + y) * side + x] +=
              sines[x] * sines[y] * sines[z];
  }
  return b;
}

/// 16 columns retiring in three waves: 8 at `s` (the median), 4 at 2s,
/// 4 at 4s.
std::vector<double> staggered_batch(index_t side, int s) {
  const std::size_t n = static_cast<std::size_t>(side) * side * side;
  std::vector<double> B(n * 16);
  for (int c = 0; c < 16; ++c) {
    const int sc = c < 8 ? s : (c < 12 ? 2 * s : 4 * s);
    const auto col = mode_rhs(side, sc);
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::size_t>(c) * n);
  }
  return B;
}

void bench_staggered_cg(bench::JsonReport& rep, index_t side) {
  CsrMatrix<double> a = gen::stencil27({.nx = side, .ny = side, .nz = side});
  a.sort_rows();
  diagonal_scale_symmetric(a);  // constant diagonal: eigenvectors preserved
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const int k = 16;
  const auto B = staggered_batch(side, 8);  // retire at ~8 / 16 / 32
  JacobiPrecond jac(a);
  CgSolver<double>::Config cfg{.rtol = 1e-8, .max_iters = 500};

  // One solver (and workspace) per scheduling mode, reused across timing
  // reps — the timed region is the solve, not workspace setup.
  CsrOperator<double, double> op_m(a), op_c(a);
  auto h_m = jac.make_apply<double>(Prec::FP64);
  auto h_c = jac.make_apply<double>(Prec::FP64);
  auto cfg_m = cfg, cfg_c = cfg;
  cfg_m.compact = false;
  cfg_c.compact = true;
  CgSolver<double> solver_m(op_m, *h_m, cfg_m), solver_c(op_c, *h_c, cfg_c);
  auto solve_with = [&](bool compact, std::vector<double>& X) {
    std::fill(X.begin(), X.end(), 0.0);
    auto& solver = compact ? solver_c : solver_m;
    return solver.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                             static_cast<std::ptrdiff_t>(n), k);
  };

  // Gate: per-column fp64 iterates of the two scheduling modes must be
  // bit-identical (compaction moves data verbatim and reorders nothing).
  std::vector<double> Xm(n * k), Xc(n * k);
  const auto res_m = solve_with(false, Xm);
  const auto res_c = solve_with(true, Xc);
  int it_lo = res_c[0].iterations, it_hi = it_lo;
  for (int c = 0; c < k; ++c) {
    check("staggered_cg_iters_col" + std::to_string(c),
          std::abs(res_m[c].iterations - res_c[c].iterations), 0.0);
    if (!res_c[c].converged) check("staggered_cg_converged", 1.0, 0.0);
    it_lo = std::min(it_lo, res_c[c].iterations);
    it_hi = std::max(it_hi, res_c[c].iterations);
  }
  double dmax = 0.0;
  for (std::size_t i = 0; i < n * k; ++i) dmax = std::max(dmax, std::abs(Xm[i] - Xc[i]));
  check("staggered_cg_column_agreement", dmax, num_threads() == 1 ? 0.0 : 1e-12);

  const double t_masked = time_min([&] { solve_with(false, Xm); });
  rep.add("solve_cg_staggered16_masked_hpcg", static_cast<std::int64_t>(n), nnz,
          t_masked, 0.0);
  const double t_compact = time_min([&] { solve_with(true, Xc); });
  rep.add("solve_cg_staggered16_compact_hpcg", static_cast<std::int64_t>(n), nnz,
          t_compact, 0.0);
  rep.add("solve_cg_staggered16_speedup", static_cast<std::int64_t>(n), nnz, t_compact,
          t_masked / t_compact);  // gbps column doubles as the speedup ratio
  std::cout << "staggered batched CG 16 RHS (n=" << n << ", retire " << it_lo << ".."
            << it_hi << " iters): masked " << t_masked << " s vs compact " << t_compact
            << " s  (" << t_masked / t_compact << "x)\n";
}

void bench_staggered_fgmres(bench::JsonReport& rep, index_t side) {
  CsrMatrix<double> a = gen::stencil27({.nx = side, .ny = side, .nz = side});
  a.sort_rows();
  diagonal_scale_symmetric(a);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const int k = 16;
  // Staggering through the ABSOLUTE target: random columns scaled so their
  // initial residual sits 1.5 / 3 / 8 decades above abs_target — with an
  // ILU(0)-preconditioned cycle contracting at a roughly constant rate per
  // step, the three waves retire at ~1x / 2x / 4x the median step count.
  // (The heavy batched triangular sweeps are exactly what the masked
  // path's per-column fallback loses.)
  std::vector<double> B(n * k);
  for (int c = 0; c < k; ++c) {
    auto col = random_vector<double>(n, 1200 + static_cast<std::uint64_t>(c), -1.0, 1.0);
    const double bn = blas::nrm2(std::span<const double>(col));
    const double decades = c < 8 ? 1.5 : (c < 12 ? 3.0 : 8.0);
    blas::scal(std::pow(10.0, decades) * 1e-8 / bn, std::span<double>(col));
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::size_t>(c) * n);
  }
  // Few, long blocks (the paper sizes blocks per hardware thread): the
  // triangular solves become latency-bound chains, which the batched
  // column-interleaved substitution turns throughput-bound.
  BlockJacobiIlu0 ilu(a, BlockJacobiIlu0::Config{8, 1.0});
  FgmresSolver<double>::Config cfg{.m = 24};

  // One solver per scheduling mode, reused across reps — constructing a
  // fresh FGMRES solver re-acquires and zeroes the multi-hundred-MB V/Z
  // batch basis, which would swamp the measured solve time.
  CsrOperator<double, double> op_m(a), op_c(a);
  auto h_m = ilu.make_apply<double>(Prec::FP64);
  auto h_c = ilu.make_apply<double>(Prec::FP64);
  auto cfg_m = cfg, cfg_c = cfg;
  cfg_m.compact = false;
  cfg_c.compact = true;
  FgmresSolver<double> solver_m(op_m, *h_m, cfg_m), solver_c(op_c, *h_c, cfg_c);
  auto run_with = [&](bool compact, std::vector<double>& X) {
    std::fill(X.begin(), X.end(), 0.0);
    auto& solver = compact ? solver_c : solver_m;
    return solver.run_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                           static_cast<std::ptrdiff_t>(n), k, 1e-8, /*x_nonzero=*/false);
  };

  std::vector<double> Xm(n * k), Xc(n * k);
  const auto res_m = run_with(false, Xm);
  const auto res_c = run_with(true, Xc);
  int it_lo = res_c[0].iters, it_hi = it_lo;
  for (int c = 0; c < k; ++c) {
    check("staggered_fgmres_iters_col" + std::to_string(c),
          std::abs(res_m[c].iters - res_c[c].iters), 0.0);
    it_lo = std::min(it_lo, res_c[c].iters);
    it_hi = std::max(it_hi, res_c[c].iters);
  }
  double dmax = 0.0;
  for (std::size_t i = 0; i < n * k; ++i) dmax = std::max(dmax, std::abs(Xm[i] - Xc[i]));
  check("staggered_fgmres_column_agreement", dmax, num_threads() == 1 ? 0.0 : 1e-12);

  const double t_masked = time_min([&] { run_with(false, Xm); });
  rep.add("fgmres_staggered16_masked_hpcg", static_cast<std::int64_t>(n), nnz, t_masked,
          0.0);
  const double t_compact = time_min([&] { run_with(true, Xc); });
  rep.add("fgmres_staggered16_compact_hpcg", static_cast<std::int64_t>(n), nnz,
          t_compact, 0.0);
  rep.add("fgmres_staggered16_speedup", static_cast<std::int64_t>(n), nnz, t_compact,
          t_masked / t_compact);
  std::cout << "staggered batched FGMRES(24) 16 RHS (n=" << n << ", retire " << it_lo
            << ".." << it_hi << " steps): masked " << t_masked << " s vs compact "
            << t_compact << " s  (" << t_masked / t_compact << "x)\n";
}

// ---------------------------------------------------------------------------
// Precision conversion + preconditioner application (the paper's other
// dominant kernels; carried over from the pre-rewrite bench)
// ---------------------------------------------------------------------------

void bench_convert(bench::JsonReport& rep, std::int64_t n) {
  const auto nn = static_cast<std::size_t>(n);
  const auto xd = random_vector<double>(nn, 55, -1.0, 1.0);
  const auto xf = converted<float>(xd);
  std::vector<half> yh(nn);
  std::vector<float> yf(nn);

  double s = time_min([&] {
    blas::convert(std::span<const double>(xd), std::span<half>(yh));
    asm volatile("" ::"r"(yh.data()) : "memory");
  });
  rep.add("convert_fp64_to_fp16", n, 0, s, n * 10.0 / s / 1e9);

  s = time_min([&] {
    blas::convert(std::span<const float>(xf), std::span<half>(yh));
    asm volatile("" ::"r"(yh.data()) : "memory");
  });
  rep.add("convert_fp32_to_fp16", n, 0, s, n * 6.0 / s / 1e9);

  s = time_min([&] {
    blas::convert(std::span<const half>(yh), std::span<float>(yf));
    asm volatile("" ::"r"(yf.data()) : "memory");
  });
  rep.add("convert_fp16_to_fp32", n, 0, s, n * 6.0 / s / 1e9);
}

void bench_ilu_apply(bench::JsonReport& rep, const CsrMatrix<double>& a64) {
  BlockJacobiIlu0 ilu(a64, BlockJacobiIlu0::Config{64, 1.0});
  const auto nn = static_cast<std::size_t>(a64.nrows);
  const auto xd = random_vector<double>(nn, 56, 0.0, 1.0);
  std::vector<double> yd(nn);
  const auto nnz = static_cast<std::int64_t>(a64.nnz());
  for (const Prec storage : {Prec::FP64, Prec::FP32, Prec::FP16}) {
    auto h = ilu.make_apply_fp64(storage);
    const double s = time_min([&] {
      h->apply(std::span<const double>(xd), std::span<double>(yd));
      asm volatile("" ::"r"(yd.data()) : "memory");
    });
    rep.add(std::string("ilu_apply_") + prec_name(storage), a64.nrows, nnz, s,
            static_cast<double>(nnz) * (prec_bytes(storage) + 4.0) / s / 1e9);
  }
}

void bench_spmv(bench::JsonReport& rep, const std::string& mat_name, CsrMatrix<double> a64) {
  const auto a32 = cast_matrix<float>(a64);
  const auto a16 = cast_matrix<half>(a64);
  const auto s64 = csr_to_sell(a64, 32);
  const auto s32 = csr_to_sell(a32, 32);
  const auto s16 = csr_to_sell(a16, 32);
  const auto nn = static_cast<std::size_t>(a64.nrows);
  const auto xd = random_vector<double>(nn, 33, -1.0, 1.0);
  const auto xf = converted<float>(xd);
  const auto xh = converted<half>(xd);

  bench_spmv_combo<double, double>(rep, mat_name, a64, s64, std::span<const double>(xd), a64);
  bench_spmv_combo<float, float>(rep, mat_name, a32, s32, std::span<const float>(xf), a64);
  bench_spmv_combo<half, float>(rep, mat_name, a16, s16, std::span<const float>(xf), a64);
  bench_spmv_combo<half, half>(rep, mat_name, a16, s16, std::span<const half>(xh), a64);
}

// ---------------------------------------------------------------------------
// Backend-tagged kernel records: the same SpMV / SpMM / dot_cols calls
// routed through kern::Kernels for the host and serial backends.  The
// serial column is the reference backend's cost of record (what a missing
// device kernel would fall back to), and the host/serial agreement check
// doubles as a standing oracle test on the dispatch seam itself — if a
// Kernels branch ever routes a call to the wrong backend, the timings and
// diffs here are where it shows.  tools/bench_diff.py treats these records
// as soft (skip-if-absent): baselines predating the backend seam stay
// diffable.
// ---------------------------------------------------------------------------

template <class MT, class XT>
void bench_backend_combo(bench::JsonReport& rep, const CsrMatrix<MT>& a,
                         std::span<const XT> x) {
  const auto n = static_cast<std::int64_t>(a.nrows);
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  const auto nn = static_cast<std::size_t>(a.nrows);
  const int k = 8;
  const std::string p =
      std::string(tname<MT>()) + (std::is_same_v<MT, XT> ? "" : std::string("_") + tname<XT>());
  const double csr_bytes = static_cast<double>(nnz) * (sizeof(MT) + 4.0);
  const double vec_bytes = static_cast<double>(n) * sizeof(XT);

  // One multi-vector panel feeds both spmm and dot_cols.
  const auto pd = random_vector<double>(nn * static_cast<std::size_t>(k), 44, -1.0, 1.0);
  const std::vector<XT> xp = converted<XT>(pd);
  std::vector<XT> yh(nn), ysr(nn), yp(nn * static_cast<std::size_t>(k));
  using S = acc_t<XT>;
  std::vector<S> dh(static_cast<std::size_t>(k)), dsr(static_cast<std::size_t>(k));

  const kern::Kernels khost{Backend::kHost};
  const kern::Kernels kserial{Backend::kSerial};

  // Agreement first: serial is the single-chain oracle; host may reassociate.
  khost.spmv(a, x, std::span<XT>(yh));
  kserial.spmv(a, x, std::span<XT>(ysr));
  double dmax = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    dmax = std::max(dmax, std::abs(static_cast<double>(yh[i]) - static_cast<double>(ysr[i])));
    scale = std::max(scale, std::abs(static_cast<double>(ysr[i])));
  }
  check("backend_serial_vs_host_spmv_" + p, dmax, tol_for<MT>(scale));
  khost.dot_cols(xp.data(), static_cast<std::ptrdiff_t>(nn), xp.data(),
                 static_cast<std::ptrdiff_t>(nn), k, nn, dh.data());
  kserial.dot_cols(xp.data(), static_cast<std::ptrdiff_t>(nn), xp.data(),
                   static_cast<std::ptrdiff_t>(nn), k, nn, dsr.data());
  dmax = 0.0;
  for (int j = 0; j < k; ++j)
    dmax = std::max(dmax, std::abs(static_cast<double>(dh[static_cast<std::size_t>(j)]) -
                                   static_cast<double>(dsr[static_cast<std::size_t>(j)])));
  check("backend_serial_vs_host_dot_cols_" + p, dmax,
        tol_for<MT>(static_cast<double>(n)));

  struct Be {
    const char* name;
    const kern::Kernels* kx;
  };
  for (const Be be : {Be{"host", &khost}, Be{"serial", &kserial}}) {
    double t = time_min([&] {
      be.kx->spmv(a, x, std::span<XT>(yh));
      asm volatile("" ::"r"(yh.data()) : "memory");
    });
    rep.add("backend_" + std::string(be.name) + "_spmv_csr_" + p, n, nnz, t,
            csr_bytes / t / 1e9);

    t = time_min([&] {
      be.kx->spmm(a, xp.data(), static_cast<std::ptrdiff_t>(nn), yp.data(),
                  static_cast<std::ptrdiff_t>(nn), k);
      asm volatile("" ::"r"(yp.data()) : "memory");
    });
    rep.add("backend_" + std::string(be.name) + "_spmm_csr_" + p + "_k8", n, nnz, t,
            static_cast<double>(k) * csr_bytes / t / 1e9);

    t = time_min([&] {
      be.kx->dot_cols(xp.data(), static_cast<std::ptrdiff_t>(nn), xp.data(),
                      static_cast<std::ptrdiff_t>(nn), k, nn, dh.data());
      asm volatile("" ::"r"(dh.data()) : "memory");
    });
    rep.add("backend_" + std::string(be.name) + "_dot_cols_" + p + "_k8", n, 0, t,
            2 * k * vec_bytes / t / 1e9);
  }
}

void bench_backends(bench::JsonReport& rep, const CsrMatrix<double>& a64) {
  const auto a32 = cast_matrix<float>(a64);
  const auto a16 = cast_matrix<half>(a64);
  const auto nn = static_cast<std::size_t>(a64.nrows);
  const auto xd = random_vector<double>(nn, 43, -1.0, 1.0);
  const auto xf = converted<float>(xd);
  bench_backend_combo<double, double>(rep, a64, std::span<const double>(xd));
  bench_backend_combo<float, float>(rep, a32, std::span<const float>(xf));
  bench_backend_combo<half, float>(rep, a16, std::span<const float>(xf));
}

// ---------------------------------------------------------------------------
// nkrylovd daemon throughput: N logical clients, one solve each, through the
// service SolveExecutor (the daemon's engine minus the socket layer — what
// the socket adds is per-request I/O, not solver scheduling).  All clients
// hit ONE (matrix, spec) key, so the executor's cross-request batching is
// the whole story: c1 measures the un-amortized per-solve cost, c64/c1024
// measure how far merged waves push the per-solve cost down.  One executor
// serves every client count, so the session-cache counters double as the
// zero-re-setup acceptance check: exactly ONE session build (the warm-up),
// everything after is a cache hit.
// ---------------------------------------------------------------------------

void bench_daemon(bench::JsonReport& rep) {
  // 8x8x8 HPCG-style stencil: solves stay sub-millisecond so the daemon's
  // dispatch/batching overhead is what c1 vs c64/c1024 actually contrasts
  // (1024 clients on a big matrix would just measure the solver again).
  CsrMatrix<double> a = gen::stencil27({.nx = 8, .ny = 8, .nz = 8});
  a.sort_rows();
  // Fingerprint the RAW matrix exactly as the server does on a client PUT.
  const std::uint64_t h = matrix_fingerprint(a, /*symmetric=*/true);
  auto p = std::make_shared<const PreparedProblem>(prepare_problem(
      "daemon-bench", std::move(a), /*symmetric=*/true, 1.0, 1.0, /*rhs_seed=*/7));
  const SolverSpec spec = SolverSpec::parse("cg/bj;nblocks=8");
  const auto n = static_cast<std::int64_t>(p->b.size());
  const auto nnz = static_cast<std::int64_t>(p->a->csr_fp64().nnz());

  service::ExecutorConfig cfg;
  cfg.threads = 4;
  cfg.max_batch = 32;
  service::SolveExecutor ex(cfg);

  // Warm-up client: pays the one and only Session build.
  {
    auto futs = ex.submit(h, p, spec, {batch_rhs(*p, 1, 7)}, 0);
    if (!futs[0].get().result.converged) check("daemon_warmup_converged", 1.0, 0.0);
  }

  int failures = 0;
  for (const int clients : {1, 64, 1024}) {
    // Per-client RHS generated outside the timed region; the timed lambda
    // only copies (cheap next to a solve) so re-runs see identical inputs.
    std::vector<std::vector<double>> rhs(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      rhs[static_cast<std::size_t>(c)] = batch_rhs(*p, 1, 100 + static_cast<std::uint64_t>(c));

    const double s = time_min([&] {
      std::vector<std::future<service::ColumnOutcome>> futs;
      futs.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        std::vector<std::vector<double>> cols;
        cols.push_back(rhs[static_cast<std::size_t>(c)]);
        for (auto& f : ex.submit(h, p, spec, std::move(cols),
                                 static_cast<std::uint64_t>(c) + 1))
          futs.push_back(std::move(f));
      }
      for (auto& f : futs)
        if (!f.get().result.converged) ++failures;
    });
    // seconds = amortized per-solve cost; the gbps column doubles as the
    // throughput in solves/second.
    rep.add("daemon_solve_c" + std::to_string(clients), n, nnz,
            s / static_cast<double>(clients), static_cast<double>(clients) / s);
    std::cout << "daemon " << clients << " client(s): " << s << " s total, "
              << static_cast<double>(clients) / s << " solves/s\n";
  }
  check("daemon_all_clients_converged", static_cast<double>(failures), 0.0);

  // Zero re-setup, proven by the counters: one session miss (the warm-up),
  // every later lease a hit.  The gbps column carries the hit RATE, which
  // tools/bench_diff.py gates against an absolute floor — a cold-cache
  // regression cannot be grandfathered in by a bad baseline.
  const service::SessionCache::Stats cs = ex.sessions().stats();
  check("daemon_repeat_clients_paid_setup", static_cast<double>(cs.misses) - 1.0, 0.0);
  const double leases = static_cast<double>(cs.hits + cs.misses);
  rep.add("daemon_cache_hit_rate", static_cast<std::int64_t>(cs.hits + cs.misses), 0, 0.0,
          leases > 0.0 ? static_cast<double>(cs.hits) / leases : 0.0);
  std::cout << "daemon session cache: " << cs.hits << " hits / " << cs.misses
            << " miss(es)\n";
}

// ---------------------------------------------------------------------------
// Autotuner quality: Session("auto") vs the best fixed spec on the whole
// stand-in catalog (the ISSUE 10 acceptance margin, bench form).  Both
// sides are measured in MODELED WORK — M applications x modeled accesses
// per application — the machine-independent currency the tuner itself
// optimizes; the aggregate auto/best ratio is what bench_diff.py soft-gates
// against an absolute ceiling (auto_vs_best_fixed_* records, skipped when
// absent from either file).
// ---------------------------------------------------------------------------

void bench_auto_tuner(bench::JsonReport& rep) {
  tune::tune_db().clear();  // cold cache even under NKRYLOV_TUNE_DB
  const std::vector<std::string> sym_universe = {
      "cg", "cg@fp32", "cg@fp16", "fgmres64", "fgmres64@fp16",
      "f3r@fp16", "f3r@fp32", "ir-gmres8@fp32"};
  const std::vector<std::string> nonsym_universe = {
      "bicgstab", "bicgstab@fp32", "bicgstab@fp16", "fgmres64", "fgmres64@fp16",
      "f3r@fp16", "f3r@fp32", "ir-gmres8@fp32"};

  double total_auto = 0.0, total_best = 0.0, worst_cell = 0.0;
  std::int64_t total_n = 0, total_nnz = 0;
  int cells = 0, unconverged = 0, margin_violations = 0;
  WallTimer tw;
  for (const gen::ProblemSpec& ps : gen::standin_catalog()) {
    const auto p =
        std::make_shared<const PreparedProblem>(prepare_standin(ps.paper_name, -4));
    const tune::TuneFeatures f = tune::extract_features(*p);

    double best = std::numeric_limits<double>::infinity();
    for (const std::string& text : ps.symmetric ? sym_universe : nonsym_universe) {
      const SolverSpec spec = SolverSpec::parse(text);
      Session s(p, spec);
      const SolveResult r = s.solve();
      if (!r.converged) continue;
      best = std::min(best, static_cast<double>(r.precond_invocations) *
                                tune::unit_cost(f, spec));
    }

    Session sa(p, "auto");
    const SolveResult ra = sa.solve();
    if (!ra.converged) {
      std::cerr << "auto did not converge on " << ps.paper_name << "\n";
      ++unconverged;
      continue;
    }
    std::string db_text;
    if (!tune::tune_db().lookup(p->fingerprint, db_text)) continue;
    const double auto_work = static_cast<double>(ra.precond_invocations) *
                             tune::unit_cost(f, SolverSpec::parse(db_text));
    if (!std::isfinite(best)) continue;  // no fixed spec converged: auto-only cell
    ++cells;
    total_auto += auto_work;
    total_best += best;
    total_n += static_cast<std::int64_t>(p->b.size());
    total_nnz += static_cast<std::int64_t>(p->a->csr_fp64().nnz());
    worst_cell = std::max(worst_cell, auto_work / best);
    // The tuning-labeled test's per-cell margin, re-asserted here so the
    // perf-smoke job catches a tuner quality regression without gtest.
    if (auto_work > 1.2 * best + 64.0) {
      std::cerr << "auto margin violation on " << ps.paper_name << ": chose "
                << db_text << " work " << auto_work << " vs best fixed " << best
                << "\n";
      ++margin_violations;
    }
  }
  check("auto_converges_on_every_catalog_cell", static_cast<double>(unconverged), 0.0);
  check("auto_within_margin_of_best_fixed", static_cast<double>(margin_violations), 0.0);

  // seconds column carries MODELED WORK (not wall time): the pair ratio
  // bench_diff.py computes is then exactly total_auto / total_best.
  rep.add("auto_vs_best_fixed_work", total_n, total_nnz, total_auto, 0.0);
  rep.add("auto_vs_best_fixed_ref", total_n, total_nnz, total_best, 0.0);
  // Informational: worst single-cell ratio rides the gbps column.
  rep.add("auto_vs_best_fixed_worst_cell", static_cast<std::int64_t>(cells), 0,
          tw.seconds(), worst_cell);
  std::cout << "auto vs best fixed (" << cells << " catalog cells): modeled work "
            << total_auto << " vs " << total_best << "  ("
            << total_auto / std::max(total_best, 1.0) << "x, worst cell "
            << worst_cell << "x, " << tw.seconds() << " s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  if (opt.wants_help()) {
    std::cout << "bench_kernels --scale=N --n=N --runs=R --json=path\n";
    return 0;
  }
  const int scale = opt.get_int("scale", 1);
  const std::int64_t n = opt.get_int64("n", 100000LL * scale);
  g_runs = opt.get_int("runs", 5);
  const std::string json = opt.get("json", "BENCH_kernels.json");

  std::cout << "nkrylov bench: kernel microbenchmarks (fused Arnoldi + SIMD SELL)\n";
  std::cout << "env: " << env_summary() << "\n";
  std::cout << "config: scale=" << scale << " n=" << n << " runs=" << g_runs << "\n";

  bench::JsonReport rep("bench_kernels");

  bench_blas1<double>(rep, n);
  bench_blas1<float>(rep, n);
  bench_blas1<half>(rep, n);

  bench_arnoldi_step<double>(rep, n);
  bench_arnoldi_step<float>(rep, n);
  bench_arnoldi_step<half>(rep, n);

  bench_convert(rep, n);
  bench_fp16_native(rep, n);

  const index_t side = static_cast<index_t>(32 * scale);
  auto hpcg = gen::stencil27({.nx = side, .ny = side, .nz = side});
  bench_ilu_apply(rep, hpcg);
  bench_backends(rep, hpcg);
  bench_spmm(rep, "hpcg", hpcg);
  bench_spmv(rep, "hpcg", std::move(hpcg));
  bench_spmv(rep, "hpgmp",
             gen::stencil27({.nx = side, .ny = side, .nz = side, .beta = 0.5}));

  bench_batched_solve(rep, n);
  bench_staggered_cg(rep, static_cast<index_t>(64 * scale));
  bench_staggered_fgmres(rep, static_cast<index_t>(32 * scale));

  bench_daemon(rep);
  bench_auto_tuner(rep);

  std::cout << "\nname, n, nnz, seconds, GB/s\n";
  for (const auto& r : rep.records())
    std::cout << r.name << ", " << r.n << ", " << r.nnz << ", " << r.seconds << ", "
              << r.gbps << "\n";

  if (rep.write(json)) std::cout << "(json written to " << json << ")\n";
  if (!g_all_ok) {
    std::cerr << "bench_kernels: fused-kernel verification FAILED\n";
    return 1;
  }
  std::cout << "bench_kernels: all fused kernels verified against references\n";
  return 0;
}
