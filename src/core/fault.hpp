// Fault-injection harness for the resilience layer (test-only).
//
// The guards and the Session fallback ladder claim to turn silent data
// corruption into structured SolveStatus values; this harness is how the
// tests prove it.  FaultyOperator / FaultyPreconditioner decorate the
// existing Operator<VT> / Preconditioner<VT> interfaces and corrupt one
// element of their output at a scheduled apply index — NaN, Inf, a huge
// finite value, or a bit flip — so every injection site a solver actually
// exercises (SpMV, preconditioner apply, batched panels) can be poisoned
// deterministically.
//
// FaultyPrimary lifts the same schedule to the PrimaryPrecond level and
// filters it by the minted handle's STORAGE precision: "nan@3@fp16" fires
// only on fp16-storage handles, so a ";fallback=fp32,fp64" escalation that
// re-mints M at fp32 genuinely escapes the fault — the recovery path the
// acceptance tests pin.
//
// register_fault_injection() installs a "fault" preconditioner kind in the
// process registry (inner kind from PrecondSpec::inner, schedule from
// PrecondSpec::inject).  It is called by tests only — never from
// register_builtin_kinds — so the kind cannot leak into the conformance
// catalog or production spec strings.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "base/half.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

/// One scheduled fault: what to corrupt, at which apply, and (optionally)
/// only on handles of which storage precision.
struct FaultSpec {
  enum class Kind : std::uint8_t { kNan = 0, kInf, kHuge, kBitFlip };

  Kind kind = Kind::kNan;
  int at = 0;                ///< 0-based apply index that gets poisoned
  std::optional<Prec> only;  ///< fire only on handles minted at this storage

  /// Parse "kind@index[@prec]" — "nan@3", "bitflip@0@fp16".  Kinds: nan,
  /// inf, huge, bitflip.  Throws nk::SpecError.
  static FaultSpec parse(const std::string& text);
  /// Canonical text form; parse(to_string()) reproduces *this exactly.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const FaultSpec&) const = default;
};

namespace fault_detail {

inline double huge_of(double) { return 1e300; }
inline float huge_of(float) { return 1e30f; }
inline half huge_of(half) { return static_cast<half>(6.0e4f); }

/// Flip the exponent MSB — the classic single-event-upset model.  Near-1
/// values become Inf/NaN-range, exact zeros become small finite numbers;
/// either way the corruption is deterministic for a given input.
template <class T>
T bit_flipped(T v) {
  if constexpr (sizeof(T) == 8) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    b ^= std::uint64_t{1} << 62;
    std::memcpy(&v, &b, sizeof(b));
  } else if constexpr (sizeof(T) == 4) {
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    b ^= std::uint32_t{1} << 30;
    std::memcpy(&v, &b, sizeof(b));
  } else {
    static_assert(sizeof(T) == 2);
    std::uint16_t b;
    std::memcpy(&b, &v, sizeof(b));
    b ^= std::uint16_t{1} << 14;
    std::memcpy(&v, &b, sizeof(b));
  }
  return v;
}

template <class T>
T poison_value(FaultSpec::Kind k, T prev) {
  switch (k) {
    case FaultSpec::Kind::kNan:
      return static_cast<T>(std::numeric_limits<double>::quiet_NaN());
    case FaultSpec::Kind::kInf:
      return static_cast<T>(std::numeric_limits<double>::infinity());
    case FaultSpec::Kind::kHuge: return huge_of(T{});
    case FaultSpec::Kind::kBitFlip: return bit_flipped(prev);
  }
  return prev;
}

}  // namespace fault_detail

/// Decorates a Preconditioner<VT>: at the `fault.at`-th apply (each batched
/// call counts as one apply; every column is poisoned), element 0 of the
/// output is corrupted.  Counting is per-decorator, so the schedule is
/// deterministic per minted handle.
template <class VT>
class FaultyPreconditioner final : public Preconditioner<VT> {
 public:
  FaultyPreconditioner(std::unique_ptr<Preconditioner<VT>> inner, FaultSpec fault)
      : inner_(std::move(inner)), fault_(fault) {}

  void apply(std::span<const VT> r, std::span<VT> z) override {
    inner_->apply(r, z);
    if (fires()) poison(&z[0]);
  }
  void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                  int k) override {
    inner_->apply_many(r, ldr, z, ldz, k);
    if (fires())
      for (int c = 0; c < k; ++c) poison(z + static_cast<std::ptrdiff_t>(c) * ldz);
  }
  [[nodiscard]] index_t size() const override { return inner_->size(); }

 private:
  bool fires() { return n_applies_++ == fault_.at; }
  void poison(VT* e0) { *e0 = fault_detail::poison_value(fault_.kind, *e0); }

  std::unique_ptr<Preconditioner<VT>> inner_;
  FaultSpec fault_;
  int n_applies_ = 0;
};

/// Decorates an Operator<VT> the same way: the scheduled apply (SpMV,
/// residual, or batched variant — each call is one tick) has element 0 of
/// every output column corrupted.
template <class VT>
class FaultyOperator final : public Operator<VT> {
 public:
  FaultyOperator(std::unique_ptr<Operator<VT>> inner, FaultSpec fault)
      : inner_(std::move(inner)), fault_(fault) {}

  void apply(std::span<const VT> x, std::span<VT> y) override {
    inner_->apply(x, y);
    if (fires()) poison(&y[0]);
  }
  void residual(std::span<const VT> b, std::span<const VT> x, std::span<VT> r) override {
    inner_->residual(b, x, r);
    if (fires()) poison(&r[0]);
  }
  void apply_many(const VT* x, std::ptrdiff_t ldx, VT* y, std::ptrdiff_t ldy,
                  int k) override {
    inner_->apply_many(x, ldx, y, ldy, k);
    if (fires())
      for (int c = 0; c < k; ++c) poison(y + static_cast<std::ptrdiff_t>(c) * ldy);
  }
  void residual_many(const VT* b, std::ptrdiff_t ldb, const VT* x, std::ptrdiff_t ldx,
                     VT* r, std::ptrdiff_t ldr, int k) override {
    inner_->residual_many(b, ldb, x, ldx, r, ldr, k);
    if (fires())
      for (int c = 0; c < k; ++c) poison(r + static_cast<std::ptrdiff_t>(c) * ldr);
  }
  [[nodiscard]] index_t size() const override { return inner_->size(); }

 private:
  bool fires() { return n_applies_++ == fault_.at; }
  void poison(VT* e0) { *e0 = fault_detail::poison_value(fault_.kind, *e0); }

  std::unique_ptr<Operator<VT>> inner_;
  FaultSpec fault_;
  int n_applies_ = 0;
};

/// PrimaryPrecond decorator: mints the inner kind's handles and wraps each
/// one whose storage precision matches `fault.only` (all storages when
/// unset) in a FaultyPreconditioner.  Precision filtering is what lets the
/// ";fallback=" escalation tests recover: re-minting M at a higher storage
/// precision leaves the fault behind.
class FaultyPrimary final : public PrimaryPrecond {
 public:
  FaultyPrimary(std::shared_ptr<PrimaryPrecond> inner, FaultSpec fault)
      : inner_(std::move(inner)), fault_(fault) {}

  [[nodiscard]] std::string name() const override {
    return "fault(" + inner_->name() + ")";
  }
  [[nodiscard]] index_t size() const override { return inner_->size(); }

  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) override {
    return wrap<double>(storage);
  }
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) override {
    return wrap<float>(storage);
  }
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) override {
    return wrap<half>(storage);
  }

 private:
  template <class VT>
  std::unique_ptr<Preconditioner<VT>> wrap(Prec storage) {
    auto handle = inner_->template make_apply<VT>(storage);
    if (fault_.only.has_value() && *fault_.only != storage) return handle;
    return std::make_unique<FaultyPreconditioner<VT>>(std::move(handle), fault_);
  }

  std::shared_ptr<PrimaryPrecond> inner_;
  FaultSpec fault_;
};

/// Installs the test-only "fault" preconditioner kind in the process
/// registry: PrecondSpec::inner names the wrapped kind ("" = "bj") and
/// PrecondSpec::inject the schedule ("nan@3@fp16").  Idempotent (the
/// registry's last-wins rule).  NEVER called by register_builtin_kinds.
void register_fault_injection();

}  // namespace nk
