// Preconditioner interfaces.
//
// Two layers:
//
//  * Preconditioner<VT> — the typed application interface a solver calls:
//    z = M⁻¹ r on vectors of type VT.  Inner solvers of the nested Krylov
//    framework also implement this interface (a solver *is* a flexible
//    preconditioner of its parent).
//
//  * PrimaryPrecond — a factorization-owning object (ILU(0), IC(0), AINV,
//    Jacobi) constructed once in fp64 and able to mint typed apply handles
//    at any storage precision (fp64 / fp32 / fp16).  The paper constructs
//    preconditioners in fp64 and then casts the values ("we first construct
//    it in fp64 and then cast its values to fp32 or fp16").
//
// Every apply through a PrimaryPrecond handle increments a shared
// invocation counter — the metric of the paper's Table 3.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "base/half.hpp"
#include "base/blas1.hpp"
#include "base/panel.hpp"

namespace nk {

/// Typed preconditioner application: z = M⁻¹ r (or an approximation).
template <class VT>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M⁻¹ r.  `r` and `z` must not alias and must both have size().
  virtual void apply(std::span<const VT> r, std::span<VT> z) = 0;

  /// Z_c = M⁻¹ R_c for k batch columns (column c at r + c·ldr / z + c·ldz).
  /// Column results are bit-identical to k apply() calls in column order —
  /// the contract batched solvers rely on.  The default loops (which also
  /// preserves any solver-internal state sequencing, e.g. Algorithm 1's
  /// adaptive Richardson weights); stateless preconditioners override with
  /// fused kernels that read their factors once per batch.
  virtual void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                          int k) {
    const std::size_t n = static_cast<std::size_t>(size());
    for (int c = 0; c < k; ++c)
      apply(std::span<const VT>(r + static_cast<std::ptrdiff_t>(c) * ldr, n),
            std::span<VT>(z + static_cast<std::ptrdiff_t>(c) * ldz, n));
  }

  /// Layout-aware batched apply: like apply_many but both panels use
  /// `layout` (see panel.hpp).  The library's solvers only ever call
  /// apply_many (their panels are row-major); this entry point remains for
  /// callers and decorators that speak interleaved panels.  It stages an
  /// interleaved batch through a grow-only row-major scratch — exact copies
  /// around the row-major apply_many, so results (and solver-state
  /// sequencing) are bit-identical at the cost of the transposes.
  virtual void apply_many_layout(const VT* r, std::ptrdiff_t ldr, VT* z,
                                 std::ptrdiff_t ldz, int k, PanelLayout layout) {
    if (layout == PanelLayout::kRowMajor) {
      apply_many(r, ldr, z, ldz, k);
      return;
    }
    const std::ptrdiff_t n = size();
    stage_.resize(static_cast<std::size_t>(2 * k) * n);
    VT* rs = stage_.data();
    VT* zs = rs + static_cast<std::ptrdiff_t>(k) * n;
    panel_copy(r, ldr, layout, rs, n, PanelLayout::kRowMajor, k, n);
    apply_many(rs, n, zs, n, k);
    panel_copy(zs, n, PanelLayout::kRowMajor, z, ldz, layout, k, n);
  }

  [[nodiscard]] virtual index_t size() const = 0;

  /// Execution-space backend this handle's kernels run on.  Set by the
  /// minting site (engines, nested builder) right after make_apply; the
  /// default host keeps direct construction paths byte-identical.
  void set_backend(Backend be) { kx_ = kern::Kernels(be); }
  [[nodiscard]] Backend backend() const { return kx_.backend(); }

 protected:
  [[nodiscard]] const kern::Kernels& kern_table() const { return kx_; }

  std::vector<VT> stage_;  ///< grow-only transpose scratch of the staged default

 private:
  kern::Kernels kx_;
};

/// Identity "preconditioner" (un-preconditioned solves in tests/benches).
template <class VT>
class IdentityPrecond final : public Preconditioner<VT> {
 public:
  explicit IdentityPrecond(index_t n) : n_(n) {}
  void apply(std::span<const VT> r, std::span<VT> z) override {
    this->kern_table().copy(r, z);
  }
  [[nodiscard]] index_t size() const override { return n_; }

 private:
  index_t n_;
};

/// Shared invocation counter (Table 3 metric).
struct InvocationCounter {
  std::uint64_t count = 0;
};

/// A primary preconditioner M: owns the fp64 factorization, mints typed
/// apply handles at a requested storage precision, and counts invocations
/// across *all* handles (every nesting level applies the same primary M).
class PrimaryPrecond {
 public:
  virtual ~PrimaryPrecond() = default;

  /// Short name for reporting ("bj-ilu0", "bj-ic0", "sd-ainv", "jacobi").
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual index_t size() const = 0;

  /// Mint a typed apply handle with values stored at `storage` precision.
  /// Storage copies are created lazily and cached inside the object.
  virtual std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) = 0;
  virtual std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) = 0;
  virtual std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) = 0;

  /// Typed convenience dispatcher.
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> make_apply(Prec storage) {
    if constexpr (std::is_same_v<VT, double>) return make_apply_fp64(storage);
    else if constexpr (std::is_same_v<VT, float>) return make_apply_fp32(storage);
    else return make_apply_fp16(storage);
  }

  [[nodiscard]] std::uint64_t invocations() const { return counter_->count; }
  void reset_invocations() { counter_->count = 0; }

 protected:
  std::shared_ptr<InvocationCounter> counter_ = std::make_shared<InvocationCounter>();
};

}  // namespace nk
