// Block-Jacobi ILU(0) — the paper's primary preconditioner on the CPU node.
//
// Rows are partitioned into `nblocks` contiguous blocks (the paper uses one
// block per hardware thread: 112 = 56 × 2); each diagonal block is factored
// independently with ILU(0) (no fill outside the block's sparsity pattern),
// and application performs the forward/backward substitutions block-parallel.
//
// Stabilization: the diagonal entries of A are multiplied by a
// problem-dependent factor α_ILU during the factorization only (Table 2
// lists the paper's values), which damps pivot loss in the incomplete
// factors.  Zero pivots encountered anyway are replaced by a unit pivot and
// counted (`breakdowns()`).
//
// The factorization is computed once in fp64; fp32/fp16 value copies are
// cast lazily ("construct in fp64, then cast"), and apply handles can mix
// any storage precision with any vector precision — arithmetic runs in the
// wider of the two, per the paper's precision-promotion rule.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// Factored block data at storage precision P.  The concatenated CSR covers
/// all rows; each row stores L (strict lower, unit diagonal implicit)
/// followed by U (diagonal + strict upper), with `diag_pos` marking the
/// diagonal entry.
template <class P>
struct IluFactors {
  index_t n = 0;
  std::vector<index_t> block_start;  ///< size nblocks+1
  std::vector<index_t> row_ptr;      ///< size n+1
  std::vector<index_t> col_idx;      ///< global columns, sorted, within-block
  std::vector<index_t> diag_pos;     ///< position of the diagonal in each row
  std::vector<P> vals;

  [[nodiscard]] index_t nblocks() const {
    return static_cast<index_t>(block_start.size()) - 1;
  }
};

/// Cast factors to another storage precision (structure shared by copy).
template <class Dst, class Src>
IluFactors<Dst> cast_factors(const IluFactors<Src>& f) {
  IluFactors<Dst> out;
  out.n = f.n;
  out.block_start = f.block_start;
  out.row_ptr = f.row_ptr;
  out.col_idx = f.col_idx;
  out.diag_pos = f.diag_pos;
  out.vals.resize(f.vals.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.vals), std::span<Dst>(out.vals));
  return out;
}

/// Block-parallel LU substitution:  z = U⁻¹ L⁻¹ r, computed in W.
///
/// Backend dispatch happens HERE, not in a separate kernel copy: the
/// per-block substitution is thread-invariant (blocks are independent and
/// each block's recurrence is a fixed serial chain), so the serial backend
/// is the same math with the OpenMP team suppressed via the `if` clause —
/// bit-identical to the host sweep by construction.
template <class P, class VT, class W = promote_t<P, VT>>
void ilu_solve(const IluFactors<P>& f, std::span<const VT> r, std::span<VT> z,
               Backend be = Backend::kHost) {
  const index_t nb = f.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = f.block_start[b], b1 = f.block_start[b + 1];
    // Forward: L y = r (unit diagonal), y written into z.
    for (index_t i = b0; i < b1; ++i) {
      W s = static_cast<W>(r[i]);
      for (index_t p = f.row_ptr[i]; p < f.diag_pos[i]; ++p)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[f.col_idx[p]]);
      z[i] = static_cast<VT>(s);
    }
    // Backward: U z = y, each row walked far-to-near so that z[i+1], the
    // value the previous row just produced, enters the chain last (as
    // z[i-1] does in the forward sweep) instead of gating all of it.
    for (index_t i = b1; i-- > b0;) {
      W s = static_cast<W>(z[i]);
      for (index_t p = f.row_ptr[i + 1]; --p > f.diag_pos[i];)
        s -= static_cast<W>(f.vals[p]) * static_cast<W>(z[f.col_idx[p]]);
      z[i] = static_cast<VT>(s / static_cast<W>(f.vals[f.diag_pos[i]]));
    }
  }
}

/// Column-group width of the batched substitution's stack accumulators.
inline constexpr int kIluMaxCols = 16;

/// Batched substitution: Z_c = U⁻¹ L⁻¹ R_c for k columns.  The triangular
/// recurrence is a serial dependency chain over rows, so a sequential
/// solve is latency-bound; here the k columns' (mutually independent)
/// chains advance in lockstep — each factor entry is loaded once and
/// applied to every column — which turns the substitution throughput-bound
/// in exactly the way the batched SpMM does.  Per column the operation
/// sequence (forward subtractions in position order, backward ones in
/// reverse position order, then the divide) is ilu_solve()'s, so batched
/// and sequential applications agree bit-for-bit.
namespace ilu_detail {

template <class P, class VT, class W, int KC>
void solve_group(const IluFactors<P>& f, const VT* rg, std::ptrdiff_t ldr, VT* zg,
                 std::ptrdiff_t ldz, int kc_dyn, Backend be) {
  const int kc = KC > 0 ? KC : kc_dyn;
  const index_t nb = f.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = f.block_start[b], b1 = f.block_start[b + 1];
    W s[kIluMaxCols];
    // Forward: L y = r (unit diagonal), y written into z.
    for (index_t i = b0; i < b1; ++i) {
      for (int c = 0; c < kc; ++c) s[c] = static_cast<W>(rg[c * ldr + i]);
      for (index_t p = f.row_ptr[i]; p < f.diag_pos[i]; ++p) {
        const W vp = static_cast<W>(f.vals[p]);
        const VT* __restrict zc = zg + f.col_idx[p];
        for (int c = 0; c < kc; ++c) s[c] -= vp * static_cast<W>(zc[c * ldz]);
      }
      for (int c = 0; c < kc; ++c) zg[c * ldz + i] = static_cast<VT>(s[c]);
    }
    // Backward: U z = y, far-to-near as in ilu_solve().
    for (index_t i = b1; i-- > b0;) {
      for (int c = 0; c < kc; ++c) s[c] = static_cast<W>(zg[c * ldz + i]);
      for (index_t p = f.row_ptr[i + 1]; --p > f.diag_pos[i];) {
        const W vp = static_cast<W>(f.vals[p]);
        const VT* __restrict zc = zg + f.col_idx[p];
        for (int c = 0; c < kc; ++c) s[c] -= vp * static_cast<W>(zc[c * ldz]);
      }
      const W d = static_cast<W>(f.vals[f.diag_pos[i]]);
      for (int c = 0; c < kc; ++c) zg[c * ldz + i] = static_cast<VT>(s[c] / d);
    }
  }
}

}  // namespace ilu_detail

template <class P, class VT, class W = promote_t<P, VT>>
void ilu_solve_many(const IluFactors<P>& f, const VT* r, std::ptrdiff_t ldr, VT* z,
                    std::ptrdiff_t ldz, int k, Backend be = Backend::kHost) {
  // Greedy 16/8/4 groups (blas::greedy_group) with the 1/2/3 tails pinned
  // too, so every compacted width — odd ones included — runs fully
  // unrolled; mirrors spmm's dispatch.
  using ilu_detail::solve_group;
  for (int c0 = 0; c0 < k;) {
    const int kc = blas::greedy_group(k - c0, kIluMaxCols);
    const VT* rg = r + static_cast<std::ptrdiff_t>(c0) * ldr;
    VT* zg = z + static_cast<std::ptrdiff_t>(c0) * ldz;
    switch (kc) {
      case 1: solve_group<P, VT, W, 1>(f, rg, ldr, zg, ldz, kc, be); break;
      case 2: solve_group<P, VT, W, 2>(f, rg, ldr, zg, ldz, kc, be); break;
      case 3: solve_group<P, VT, W, 3>(f, rg, ldr, zg, ldz, kc, be); break;
      case 4: solve_group<P, VT, W, 4>(f, rg, ldr, zg, ldz, kc, be); break;
      case 8: solve_group<P, VT, W, 8>(f, rg, ldr, zg, ldz, kc, be); break;
      case kIluMaxCols: solve_group<P, VT, W, kIluMaxCols>(f, rg, ldr, zg, ldz, kc, be); break;
      default: solve_group<P, VT, W, 0>(f, rg, ldr, zg, ldz, kc, be); break;
    }
    c0 += kc;
  }
}

class BlockJacobiIlu0 final : public PrimaryPrecond {
 public:
  struct Config {
    int nblocks = 0;     ///< 0 → one block per OpenMP thread
    double alpha = 1.0;  ///< α_ILU diagonal boost during factorization
  };

  /// Factor the block-diagonal part of `a` (rows must be sorted).
  BlockJacobiIlu0(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "bj-ilu0"; }
  [[nodiscard]] index_t size() const override { return f64_->n; }

  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) override;
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) override;
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) override;

  /// Zero pivots replaced during factorization.
  [[nodiscard]] int breakdowns() const { return breakdowns_; }

  [[nodiscard]] const IluFactors<double>& factors_fp64() const { return *f64_; }

 private:
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> make_apply_impl(Prec storage);

  std::shared_ptr<IluFactors<double>> f64_;
  std::shared_ptr<IluFactors<float>> f32_;  // lazy
  std::shared_ptr<IluFactors<half>> f16_;   // lazy
  int breakdowns_ = 0;
};

/// Typed apply handle over shared factors; counts invocations.
template <class SP, class VT>
class IluApplyHandle final : public Preconditioner<VT> {
 public:
  IluApplyHandle(std::shared_ptr<const IluFactors<SP>> f,
                 std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ilu_solve(*f_, r, z, this->backend());
  }
  void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                  int k) override {
    cnt_->count += static_cast<std::uint64_t>(k);
    ilu_solve_many(*f_, r, ldr, z, ldz, k, this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->n; }

 private:
  std::shared_ptr<const IluFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

/// Compute balanced contiguous block boundaries (helper shared with IC(0)).
std::vector<index_t> make_block_starts(index_t n, int nblocks);

}  // namespace nk
