// Block-Jacobi IC(0) — incomplete Cholesky with zero fill, the paper's
// primary preconditioner for symmetric positive definite matrices on the
// CPU node ("block-Jacobi ILU(0) (or IC(0) when symmetric)").
//
// Each diagonal block is factored as A_b ≈ L L^T on the lower-triangular
// sparsity pattern of A_b.  The α_ILU diagonal boost is applied during the
// factorization, and non-positive pivots (IC(0) can break down on matrices
// that are not M-matrices) are clamped to a small positive value and
// counted.  Like ILU(0), factorization happens in fp64 with lazy fp32/fp16
// value casts for the mixed-precision apply handles.
#pragma once

#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// IC(0) factor data at storage precision P.  `l` holds rows of L with the
/// diagonal last; `lt` holds rows of L^T (columns of L) with the diagonal
/// first — the layout the backward substitution wants.
template <class P>
struct IcFactors {
  index_t n = 0;
  std::vector<index_t> block_start;
  std::vector<index_t> l_row_ptr, l_col, lt_row_ptr, lt_col;
  std::vector<P> l_val, lt_val;

  [[nodiscard]] index_t nblocks() const {
    return static_cast<index_t>(block_start.size()) - 1;
  }
};

template <class Dst, class Src>
IcFactors<Dst> cast_factors(const IcFactors<Src>& f) {
  IcFactors<Dst> out;
  out.n = f.n;
  out.block_start = f.block_start;
  out.l_row_ptr = f.l_row_ptr;
  out.l_col = f.l_col;
  out.lt_row_ptr = f.lt_row_ptr;
  out.lt_col = f.lt_col;
  out.l_val.resize(f.l_val.size());
  out.lt_val.resize(f.lt_val.size());
  blas::convert<Src, Dst>(std::span<const Src>(f.l_val), std::span<Dst>(out.l_val));
  blas::convert<Src, Dst>(std::span<const Src>(f.lt_val), std::span<Dst>(out.lt_val));
  return out;
}

/// z = L^{-T} L^{-1} r, block-parallel, computed in W.  Per-block
/// substitution is thread-invariant, so the serial backend is the same
/// sweep with the OpenMP team suppressed — bit-identical by construction.
template <class P, class VT, class W = promote_t<P, VT>>
void ic_solve(const IcFactors<P>& f, std::span<const VT> r, std::span<VT> z,
              Backend be = Backend::kHost) {
  const index_t nb = f.nblocks();
  const bool par = be == Backend::kHost;
  (void)par;  // referenced only from the pragma; unused without OpenMP
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = f.block_start[b], b1 = f.block_start[b + 1];
    // Forward: L y = r (diagonal is the last entry of each L row).
    for (index_t i = b0; i < b1; ++i) {
      W s = static_cast<W>(r[i]);
      const index_t end = f.l_row_ptr[i + 1] - 1;  // diag position
      for (index_t p = f.l_row_ptr[i]; p < end; ++p)
        s -= static_cast<W>(f.l_val[p]) * static_cast<W>(z[f.l_col[p]]);
      z[i] = static_cast<VT>(s / static_cast<W>(f.l_val[end]));
    }
    // Backward: L^T z = y (diagonal is the first entry of each L^T row).
    // The row is walked far-to-near, so z[i+1] — the value the previous
    // row just produced — enters last, as z[i-1] does in the forward
    // sweep; ascending order would start every row's chain on it.
    for (index_t i = b1; i-- > b0;) {
      W s = static_cast<W>(z[i]);
      const index_t begin = f.lt_row_ptr[i];  // diag position
      for (index_t p = f.lt_row_ptr[i + 1]; --p > begin;)
        s -= static_cast<W>(f.lt_val[p]) * static_cast<W>(z[f.lt_col[p]]);
      z[i] = static_cast<VT>(s / static_cast<W>(f.lt_val[begin]));
    }
  }
}

class BlockJacobiIc0 final : public PrimaryPrecond {
 public:
  struct Config {
    int nblocks = 0;     ///< 0 → one block per OpenMP thread
    double alpha = 1.0;  ///< α diagonal boost during factorization
  };

  BlockJacobiIc0(const CsrMatrix<double>& a, Config cfg);

  [[nodiscard]] std::string name() const override { return "bj-ic0"; }
  [[nodiscard]] index_t size() const override { return f64_->n; }

  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) override;
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) override;
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) override;

  /// Non-positive pivots clamped during factorization.
  [[nodiscard]] int breakdowns() const { return breakdowns_; }

  [[nodiscard]] const IcFactors<double>& factors_fp64() const { return *f64_; }

 private:
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> make_apply_impl(Prec storage);

  std::shared_ptr<IcFactors<double>> f64_;
  std::shared_ptr<IcFactors<float>> f32_;
  std::shared_ptr<IcFactors<half>> f16_;
  int breakdowns_ = 0;
};

template <class SP, class VT>
class IcApplyHandle final : public Preconditioner<VT> {
 public:
  IcApplyHandle(std::shared_ptr<const IcFactors<SP>> f, std::shared_ptr<InvocationCounter> cnt)
      : f_(std::move(f)), cnt_(std::move(cnt)) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    ++cnt_->count;
    ic_solve(*f_, r, z, this->backend());
  }
  [[nodiscard]] index_t size() const override { return f_->n; }

 private:
  std::shared_ptr<const IcFactors<SP>> f_;
  std::shared_ptr<InvocationCounter> cnt_;
};

}  // namespace nk
