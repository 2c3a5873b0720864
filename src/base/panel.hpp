// Panel layouts for batched multi-RHS storage.
//
// A batched solver advances k right-hand sides through panels of k columns
// of length n.  Every solver panel, survivor and gather panel alike, is
// kRowMajor: column c is contiguous at p + c·ld (ld ≥ n), so single-column
// spans are free and each column streams unit-stride.
//
// kColMajor — element (i, c) at p[i·ld + c] (ld ≥ k, the row stride) — is
// the transposed ("interleaved") layout.  It survives in two places only:
// the fp16 × fp32 CSR SpMM interleaves X internally (sparse/spmm.hpp), and
// Preconditioner::apply_many_layout stages interleaved panels for callers
// that hand it one.  A colmajor survivor-panel path for the solvers was
// measured and removed: it lost up to 3.2x on nonsymmetric systems and won
// nowhere outside noise (ROADMAP item 5).
//
// The copies below are exact element moves — no arithmetic — so staging a
// panel between layouts never changes a column's values.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace nk {

enum class PanelLayout : unsigned char {
  kRowMajor = 0,  ///< column c contiguous at p + c·ld (ld = column stride ≥ n)
  kColMajor = 1,  ///< element (i, c) at p[i·ld + c]   (ld = row stride ≥ k)
};

[[nodiscard]] constexpr const char* panel_layout_name(PanelLayout l) {
  return l == PanelLayout::kColMajor ? "colmajor" : "rowmajor";
}

[[nodiscard]] inline std::optional<PanelLayout> parse_panel_layout(std::string_view s) {
  if (s == "rowmajor") return PanelLayout::kRowMajor;
  if (s == "colmajor") return PanelLayout::kColMajor;
  return std::nullopt;
}

/// Address of element (i, c) of a panel with leading dimension `ld` under
/// layout L (compile-time variant — folds to one addressing mode).
template <PanelLayout L, class T>
[[nodiscard]] constexpr T* panel_at(T* p, std::ptrdiff_t ld, std::ptrdiff_t c,
                                    std::ptrdiff_t i) {
  if constexpr (L == PanelLayout::kColMajor) return p + i * ld + c;
  else return p + c * ld + i;
}

/// Runtime variant of panel_at.
template <class T>
[[nodiscard]] constexpr T* panel_at(T* p, std::ptrdiff_t ld, PanelLayout l,
                                    std::ptrdiff_t c, std::ptrdiff_t i) {
  return l == PanelLayout::kColMajor ? p + i * ld + c : p + c * ld + i;
}

/// Copy one column (length n) between panels of arbitrary layouts.  Exact
/// element copies — no arithmetic, safe for non-finite payloads.
template <class T>
void panel_copy_col(const T* src, std::ptrdiff_t lds, PanelLayout ls, std::ptrdiff_t cs,
                    T* dst, std::ptrdiff_t ldd, PanelLayout ld, std::ptrdiff_t cd,
                    std::ptrdiff_t n) {
  const T* s = panel_at(src, lds, ls, cs, 0);
  T* d = panel_at(dst, ldd, ld, cd, 0);
  const std::ptrdiff_t ss = ls == PanelLayout::kColMajor ? lds : 1;
  const std::ptrdiff_t ds = ld == PanelLayout::kColMajor ? ldd : 1;
  if (ss == 1 && ds == 1) {
    for (std::ptrdiff_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (std::ptrdiff_t i = 0; i < n; ++i) d[i * ds] = s[i * ss];
  }
}

/// Copy a k-column panel (length n) between layouts.  Exact element copies;
/// the workhorse of Preconditioner::apply_many_layout's staging.
template <class T>
void panel_copy(const T* src, std::ptrdiff_t lds, PanelLayout ls, T* dst,
                std::ptrdiff_t ldd, PanelLayout ld, int k, std::ptrdiff_t n) {
  if (ls == ld && lds == ldd) {
    // Same layout and stride: single dense copy of the covered region.
    for (int c = 0; c < k; ++c) panel_copy_col(src, lds, ls, c, dst, ldd, ld, c, n);
    return;
  }
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * n > 1 << 16)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    for (int c = 0; c < k; ++c)
      *panel_at(dst, ldd, ld, c, i) = *panel_at(src, lds, ls, c, i);
}

}  // namespace nk
