// The Session("auto") acceptance surface: the meta-kind converges on the
// whole stand-in catalog within a bounded margin of the best fixed spec,
// the perf-DB short-circuits repeat tuning, stale/corrupt DB entries are
// survived, and the user pins are honored.
//
// Margin currency: MODELED WORK = M-applications x modeled accesses per
// application (unit_cost) — the Table 3 comparison the tuner itself
// optimizes.  Raw outer-iteration counts are not comparable across kinds
// (one F3R outer iteration is 64 M-applications), and wall-clock would
// make the bound load-dependent.
//
// Each TEST runs as its own CTest process (gtest_discover_tests), so the
// process-wide tune_db() singleton starts cold per test; clear() guards
// against an inherited NKRYLOV_TUNE_DB attachment anyway.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/tune/perf_db.hpp"
#include "core/tune/tuner.hpp"
#include "sparse/gen/suite_standins.hpp"

namespace nk::tune {
namespace {

/// The fixed-spec universe the tuner is judged against: the shortlist's
/// own candidate space, spelled as user-visible spec strings.
std::vector<std::string> fixed_universe(bool symmetric) {
  const std::string flat = symmetric ? "cg" : "bicgstab";
  return {flat,          flat + "@fp32", flat + "@fp16", "fgmres64",
          "fgmres64@fp16", "f3r@fp16",   "f3r@fp32",     "ir-gmres8@fp32"};
}

double modeled_work(const TuneFeatures& f, const SolverSpec& spec,
                    std::uint64_t mapplies) {
  return static_cast<double>(mapplies) * unit_cost(f, spec);
}

TEST(AutoSession, ConvergesOnWholeCatalogWithinMarginOfBestFixed) {
  tune_db().clear();
  for (const gen::ProblemSpec& ps : gen::standin_catalog()) {
    const auto p =
        std::make_shared<const PreparedProblem>(prepare_standin(ps.paper_name, -4));
    const TuneFeatures f = extract_features(*p);

    double best_fixed = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (const std::string& text : fixed_universe(ps.symmetric)) {
      const SolverSpec spec = SolverSpec::parse(text);
      Session s(p, spec);
      const SolveResult r = s.solve();
      if (!r.converged) continue;
      const double work = modeled_work(f, spec, r.precond_invocations);
      if (work < best_fixed) {
        best_fixed = work;
        best_name = text;
      }
    }

    Session sa(p, "auto");
    const SolveResult ra = sa.solve();
    EXPECT_TRUE(ra.converged) << ps.paper_name << ": auto (" << ra.solver
                              << ") did not converge: " << status_name(ra.status);
    if (!ra.converged || !std::isfinite(best_fixed)) continue;

    // The chosen engine's minimal spec, for pricing what auto actually ran.
    const std::string db_text = [&] {
      std::string t;
      EXPECT_TRUE(tune_db().lookup(p->fingerprint, t)) << ps.paper_name;
      return t;
    }();
    const double auto_work =
        modeled_work(f, SolverSpec::parse(db_text), ra.precond_invocations);
    EXPECT_LE(auto_work, 1.2 * best_fixed + 64.0)
        << ps.paper_name << ": auto chose " << db_text << " (work " << auto_work
        << ") vs best fixed " << best_name << " (work " << best_fixed << ")";
  }
}

TEST(AutoSession, SecondSessionHitsPerfDbWithZeroProbes) {
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("ecology2", -4));

  Session first(p, "auto");
  const TuneDbStats after_first = tune_db().stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_GT(after_first.probes, 0u);  // default NKRYLOV_TUNE_PROBES = 4
  EXPECT_EQ(after_first.entries, 1u);
  EXPECT_TRUE(first.solve().converged);

  Session second(p, "auto");
  const TuneDbStats after_second = tune_db().stats();
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.probes, after_first.probes) << "db hit must skip probes";
  EXPECT_TRUE(second.solve().converged);
  EXPECT_EQ(second.solver_name(), first.solver_name());
}

TEST(AutoSession, ProbesDisabledStillConverges) {
  // NKRYLOV_TUNE_PROBES=0 is the model-only mode: the shortlist's top
  // pick is adopted unprobed (and escalation still guards the solve).
  ::setenv("NKRYLOV_TUNE_PROBES", "0", 1);
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("thermal2", -4));
  Session s(p, "auto");
  EXPECT_EQ(tune_db().stats().probes, 0u);
  EXPECT_TRUE(s.solve().converged);
  ::unsetenv("NKRYLOV_TUNE_PROBES");
}

TEST(AutoSession, StaleDbEntryIsEscalatedPastAndOverwritten) {
  // Hand-seed the DB with a spec that genuinely fails here: CG's
  // three-term recurrence breaks on the convection-dominated "stokes"
  // stand-in (residual blows up to ~1e24 and the iteration cap trips).
  // The entry is advisory: the solve must escalate through the ranked
  // candidates, converge, and replace it with the spec that worked.
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("stokes", -4));
  tune_db().store(p->fingerprint, "cg");

  Session s(p, "auto");
  const SolveResult r = s.solve();
  EXPECT_TRUE(r.converged) << status_name(r.status);
  EXPECT_FALSE(r.attempts.empty()) << "the seeded cg attempt should be on the trail";

  std::string text;
  ASSERT_TRUE(tune_db().lookup(p->fingerprint, text));
  EXPECT_NE(text, "cg") << "winning spec must overwrite the stale entry";
  EXPECT_NE(SolverSpec::parse(text).kind, "cg");
}

TEST(AutoSession, UnparseableDbEntryFallsBackToTuning) {
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("ecology2", -4));
  tune_db().store(p->fingerprint, "no-such-kind@fp99");

  Session s(p, "auto");
  EXPECT_TRUE(s.solve().converged);
  std::string text;
  ASSERT_TRUE(tune_db().lookup(p->fingerprint, text));
  EXPECT_NO_THROW(SolverSpec::parse(text)) << "re-tuning must repair the entry";
}

TEST(AutoSession, DbEntryWithRemovedLayoutOptionIsRetuned) {
  // A perf-DB written while the batched solvers still took ";layout=" can
  // carry that option.  It no longer parses, so the entry must take the
  // reject-and-re-tune path — never fail the solve — and be repaired.
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("ecology2", -4));
  tune_db().store(p->fingerprint, "cg;layout=colmajor");

  const TuneResult t = tune(*p, Constraints{}, 1e-8, nullptr);
  EXPECT_FALSE(t.db_hit);
  EXPECT_NE(t.log.find("rejected"), std::string::npos) << t.log;

  Session s(p, "auto");
  EXPECT_TRUE(s.solve().converged);
  std::string text;
  ASSERT_TRUE(tune_db().lookup(p->fingerprint, text));
  EXPECT_EQ(text.find("layout"), std::string::npos) << text;
  EXPECT_NO_THROW(SolverSpec::parse(text)) << "re-tuning must repair the entry";
}

TEST(AutoSession, PrecisionPinIsHonored) {
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("ecology2", -4));
  Session s(p, "auto@fp32");
  const SolveResult r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_NE(s.solver_name().find("fp32"), std::string::npos) << s.solver_name();
  std::string text;
  ASSERT_TRUE(tune_db().lookup(p->fingerprint, text));
  EXPECT_EQ(SolverSpec::parse(text).prec, Prec::FP32) << text;
}

TEST(AutoSession, UserOptionTailCarriesOntoTheWinner) {
  // rtol travels: a looser target must be met (and reported) by whatever
  // engine the tuner picks.
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("thermal2", -4));
  Session s(p, "auto;rtol=1e-4");
  const SolveResult r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.final_relres, 1e-4);
}

TEST(AutoSession, SolveManyDelegatesToTheChosenEngine) {
  tune_db().clear();
  const auto p =
      std::make_shared<const PreparedProblem>(prepare_standin("ecology2", -4));
  Session s(p, "auto;wave=2");
  const int k = 4;
  const std::vector<double> B = s.make_rhs_batch(k);
  std::vector<double> X(B.size(), 0.0);
  const auto rs = s.solve_many(std::span<const double>(B), std::span<double>(X), k);
  ASSERT_EQ(rs.size(), static_cast<std::size_t>(k));
  for (const SolveResult& r : rs) EXPECT_TRUE(r.converged) << r.solver;
}

}  // namespace
}  // namespace nk::tune
