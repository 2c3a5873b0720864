// Fault-injection matrix: scheduled NaN/Inf/huge/bit-flip corruption at the
// operator and preconditioner apply sites, across solvers and precisions,
// must surface as the DOCUMENTED SolveStatus values — never a hang, crash,
// or a dishonest "converged".  Also pins the acceptance criterion of the
// resilience layer: a ";fallback=" ladder recovers NaN-poisoned fp16 cases
// to genuine convergence, per column in the batched path.
//
// These tests carry the `fault-injection` CTest label (tests/CMakeLists.txt)
// and are the only callers of register_fault_injection().
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/session.hpp"
#include "krylov/cg.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

PreparedProblem sym_problem() {
  return prepare_problem("fault-sym", test::laplace2d(12, 12), true, 1.0, 1.0, 3);
}

PreparedProblem nonsym_problem() {
  return prepare_problem("fault-nonsym", test::scaled_convdiff2d(12, 2.0), false, 1.0,
                         1.0, 3);
}

TEST(FaultSpecParse, RoundTripsAndRejects) {
  const FaultSpec f = FaultSpec::parse("nan@3@fp16");
  EXPECT_EQ(f.kind, FaultSpec::Kind::kNan);
  EXPECT_EQ(f.at, 3);
  ASSERT_TRUE(f.only.has_value());
  EXPECT_EQ(*f.only, Prec::FP16);
  EXPECT_EQ(f.to_string(), "nan@3@fp16");
  EXPECT_EQ(FaultSpec::parse(f.to_string()), f);

  const FaultSpec g = FaultSpec::parse("bitflip@0");
  EXPECT_EQ(g.kind, FaultSpec::Kind::kBitFlip);
  EXPECT_EQ(g.at, 0);
  EXPECT_FALSE(g.only.has_value());
  EXPECT_EQ(g.to_string(), "bitflip@0");

  EXPECT_THROW(FaultSpec::parse("nan"), SpecError);
  EXPECT_THROW(FaultSpec::parse("frob@1"), SpecError);
  EXPECT_THROW(FaultSpec::parse("nan@-1"), SpecError);
  EXPECT_THROW(FaultSpec::parse("nan@x"), SpecError);
  EXPECT_THROW(FaultSpec::parse("nan@1@fp99"), SpecError);
}

TEST(FaultRegistry, TestOnlyKindStaysOutOfTheConformanceCatalog) {
  register_fault_injection();
  register_fault_injection();  // idempotent (last-wins registration)
  ASSERT_NE(registry().precond_info("fault"), nullptr);
  EXPECT_FALSE(registry().precond_info("fault")->conformance);
  for (const auto& kind : registry().conformance_precond_kinds())
    EXPECT_NE(kind, "fault");
  // The schedule is mandatory: a bare "fault" spec is rejected at build.
  const auto p = sym_problem();
  EXPECT_THROW(registry().make_precond(PrecondSpec::parse("fault"), p), SpecError);
}

// The site x kind x solver matrix.  NaN and Inf injections must be
// ATTRIBUTED (kNonFinite with a named site); huge and bit-flip injections
// corrupt the math without a guaranteed non-finite signature, so the
// contract there is a defined terminal status and an honest convergence
// claim within a bounded budget.
TEST(FaultMatrix, PrecondSiteAcrossKindsAndSolvers) {
  register_fault_injection();
  struct SolverCase {
    const char* token;
    bool symmetric;
  };
  const SolverCase solvers[] = {{"cg", true}, {"bicgstab", false}, {"fgmres8", false}};
  const char* kinds[] = {"nan", "inf", "huge", "bitflip"};

  for (const auto& sc : solvers) {
    for (const char* kind : kinds) {
      const auto p = sc.symmetric ? sym_problem() : nonsym_problem();
      const std::string spec = std::string(sc.token) +
                               "/fault;inject=" + kind +
                               "@1;inner=jacobi;max-iters=400;restarts=1";
      Session s(p, SolverSpec::parse(spec));
      const SolveResult r = s.solve();
      SCOPED_TRACE(spec);
      if (std::string(kind) == "nan" || std::string(kind) == "inf") {
        EXPECT_EQ(r.status, SolveStatus::kNonFinite);
        EXPECT_FALSE(r.failure.empty());
        EXPECT_FALSE(r.converged);
      } else if (r.converged) {
        // Huge/bit-flip may be survivable — but only with the true fp64
        // residual backing the claim (the engines' demotion guarantee).
        EXPECT_EQ(r.status, SolveStatus::kConverged);
        EXPECT_LT(r.final_relres, 1e-8 * 1.5);
      } else {
        EXPECT_NE(r.status, SolveStatus::kConverged);
      }
    }
  }
}

TEST(FaultMatrix, OperatorSiteIsAttributedByTheSolverGuards) {
  const auto a = test::scaled_laplace2d(12, 12);
  const auto prob = test::make_problem(a, 5);
  FaultyOperator<double> op(std::make_unique<CsrOperator<double, double>>(a),
                            FaultSpec::parse("nan@2"));
  IdentityPrecond<double> id(a.nrows);
  CgSolver<double>::Config cfg;
  cfg.rtol = 1e-10;
  cfg.max_iters = 500;
  CgSolver<double> cg(op, id, cfg);
  std::vector<double> x(prob.x);
  const SolveResult r = cg.solve(std::span<const double>(prob.b), std::span<double>(x));
  EXPECT_EQ(r.status, SolveStatus::kNonFinite);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_LT(r.iterations, 10);  // the guard fires at the poisoned apply, not at budget
}

/// Batched-operator decorator that corrupts ONE column: on its first
/// apply_many it overwrites row 0 of output column `col` with `value`; every
/// other call and column is the exact product.  (FaultyOperator poisons
/// every column of a batched call, which retires the whole wave.)
class OneColumnFault final : public Operator<double> {
 public:
  OneColumnFault(const CsrMatrix<double>& a, int col, double value)
      : inner_(a), col_(col), value_(value) {}
  void apply(std::span<const double> x, std::span<double> y) override { inner_.apply(x, y); }
  void residual(std::span<const double> b, std::span<const double> x,
                std::span<double> r) override {
    inner_.residual(b, x, r);
  }
  void apply_many(const double* x, std::ptrdiff_t ldx, double* y, std::ptrdiff_t ldy,
                  int k) override {
    inner_.apply_many(x, ldx, y, ldy, k);
    if (calls_++ == 0 && col_ < k) y[static_cast<std::ptrdiff_t>(col_) * ldy] = value_;
  }
  [[nodiscard]] index_t size() const override { return inner_.size(); }

 private:
  CsrOperator<double, double> inner_;
  int col_;
  double value_;
  int calls_ = 0;
};

/// Batched CG on the unscaled 12x12 Laplacian, M = I, 4 columns; column 1
/// has b[0] = 0, so its first search direction p = b is zero at row 0.
std::vector<SolveResult> batched_cg_with_fault(double value, bool guard_panels) {
  const auto a = test::laplace2d(12, 12);
  const std::ptrdiff_t n = a.nrows;
  const int k = 4;
  std::vector<double> B(static_cast<std::size_t>(n * k));
  for (int c = 0; c < k; ++c)
    for (std::ptrdiff_t i = 0; i < n; ++i)
      B[static_cast<std::size_t>(c * n + i)] = 1.0 + 0.25 * c + 0.01 * static_cast<double>(i % 7);
  B[static_cast<std::size_t>(n)] = 0.0;
  std::vector<double> X(B.size(), 0.0);
  OneColumnFault op(a, /*col=*/1, value);
  IdentityPrecond<double> id(a.nrows);
  CgSolver<double>::Config cfg;
  cfg.rtol = 1e-8;
  cfg.max_iters = 500;
  cfg.guard_panels = guard_panels;
  CgSolver<double> cg(op, id, cfg);
  return cg.solve_many(B.data(), n, X.data(), n, k);
}

// guard_panels only sharpens attribution.  A value that is finite in q but
// overflows r = r - alpha·q (q[0] = DBL_MAX where p[0] = 0, so p·q stays
// finite and alpha > 1) makes column 1's residual panel non-finite: the
// guard names the panel, the unguarded solve names the norm, and the other
// columns converge either way.
TEST(FaultMatrix, GuardPanelsAttributesOverflowedColumnToThePanel) {
  for (const bool guard : {true, false}) {
    SCOPED_TRACE(guard ? "guard_panels" : "unguarded");
    const auto rs = batched_cg_with_fault(std::numeric_limits<double>::max(), guard);
    ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs[1].status, SolveStatus::kNonFinite);
    EXPECT_EQ(rs[1].failure, guard ? "panel" : "rnorm");
    EXPECT_EQ(rs[1].iterations, 1);
    for (int c : {0, 2, 3}) {
      EXPECT_EQ(rs[c].status, SolveStatus::kConverged) << "c=" << c;
      EXPECT_TRUE(rs[c].converged) << "c=" << c;
    }
  }
}

// A NaN injected into one column of q reaches p·q before it can reach the
// residual panel, so the pivot check retires that column — guarded or not —
// and the rest of the batch converges.
TEST(FaultMatrix, NanInOneBatchedColumnRetiresOnlyThatColumn) {
  const auto rs = batched_cg_with_fault(std::numeric_limits<double>::quiet_NaN(), true);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs[1].status, SolveStatus::kNonFinite);
  EXPECT_EQ(rs[1].failure, "pivot");
  for (int c : {0, 2, 3}) EXPECT_EQ(rs[c].status, SolveStatus::kConverged) << "c=" << c;
}

TEST(FaultMatrix, PrecisionFilteredFaultOnlyFiresAtItsStorage) {
  register_fault_injection();
  const auto p = sym_problem();
  // The schedule names fp16 storage, but this solver mints M at fp64 —
  // the fault must never fire and the solve must be clean.
  Session s(p, SolverSpec::parse("cg/fault;inject=nan@0@fp16;inner=bj"));
  const SolveResult r = s.solve();
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_TRUE(r.attempts.empty());
}

// THE acceptance case: an fp16-storage NaN fault kills the first attempt;
// ";fallback=fp32,fp64" escalates, re-mints M above the fault's precision,
// and recovers to true convergence with the failed attempt on record.
TEST(FaultMatrix, FallbackRecoversNanPoisonedFp16ToConvergence) {
  register_fault_injection();
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse(
                   "cg@fp16/fault;inject=nan@2@fp16;inner=bj;fallback=fp32,fp64"));
  const SolveResult r = s.solve();
  EXPECT_EQ(r.status, SolveStatus::kConverged);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.final_relres, 1e-8 * 1.5);
  ASSERT_GE(r.attempts.size(), 1u);
  EXPECT_NE(r.attempts[0].find("non_finite"), std::string::npos) << r.attempts[0];
  // The session's own engine is restored: a second solve repeats the
  // ladder rather than silently staying escalated.
  const SolveResult again = s.solve();
  EXPECT_EQ(again.status, SolveStatus::kConverged);
  ASSERT_GE(again.attempts.size(), 1u);
}

TEST(FaultMatrix, BatchedColumnsRecoverIndividuallyUnderFallback) {
  register_fault_injection();
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse(
                   "cg@fp16/fault;inject=nan@1@fp16;inner=bj;fallback=fp64"));
  const int k = 3;
  const auto B = s.make_rhs_batch(k);
  std::vector<double> X(B.size(), 0.0);
  const auto rs = s.solve_many(B, X, k);
  ASSERT_EQ(rs.size(), static_cast<std::size_t>(k));
  // Every column ends converged, and ONLY the poisoned column pays for a
  // retry: its attempt trail records the fp16 failure, while the clean
  // columns ride through the batched pass untouched (no trail).  That is
  // the per-column recovery contract — corruption in one column neither
  // freezes the wave nor forces the healthy columns through the ladder.
  std::size_t retried = 0;
  for (int c = 0; c < k; ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(rs[c].status, SolveStatus::kConverged);
    if (!rs[c].attempts.empty()) {
      ++retried;
      EXPECT_NE(rs[c].attempts[0].find("non_finite"), std::string::npos)
          << rs[c].attempts[0];
    }
  }
  EXPECT_GE(retried, 1u);  // the fault genuinely fired somewhere
}

TEST(FaultMatrix, FallbackExhaustionReportsTheLastAttemptWithTheFullTrail) {
  register_fault_injection();
  const auto p = sym_problem();
  // The fault fires at EVERY storage precision, so the whole ladder fails.
  Session s(p, SolverSpec::parse(
                   "cg@fp16/fault;inject=nan@0;inner=bj;fallback=fp32,fp64"));
  const SolveResult r = s.solve();
  EXPECT_EQ(r.status, SolveStatus::kNonFinite);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.attempts.size(), 2u);  // fp16 and fp32 attempts, fp64 is `r` itself
}

}  // namespace
}  // namespace nk
