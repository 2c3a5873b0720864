// Registry tests: kind metadata, factory behavior, the conformance
// catalog's coverage contract, and the variant aliases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/session.hpp"
#include "core/variants.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

PreparedProblem small_problem(bool symmetric) {
  return symmetric
             ? prepare_problem("s", test::laplace2d(10, 10), true, 1.0, 1.0, 3)
             : prepare_problem("n", test::scaled_convdiff2d(10, 4.0), false, 1.0, 1.0, 3);
}

TEST(Registry, BuiltinKindsAreRegistered) {
  const auto solvers = registry().solver_kinds();
  for (const char* k : {"cg", "bicgstab", "krylov", "fgmres", "ir-gmres", "f3r", "f2",
                        "fp16-f2", "f3", "fp16-f3", "f4"})
    EXPECT_NE(std::find(solvers.begin(), solvers.end(), k), solvers.end()) << k;
  const auto preconds = registry().precond_kinds();
  for (const char* k :
       {"jacobi", "bj", "sd-ainv", "bj-ilu0", "bj-ic0", "ssor", "neumann", "none"})
    EXPECT_NE(std::find(preconds.begin(), preconds.end(), k), preconds.end()) << k;
}

TEST(Registry, ConformanceAxesMatchTheCatalogGrid) {
  // The sweep's cell ordering contract (registration order).
  EXPECT_EQ(registry().conformance_solver_kinds(),
            (std::vector<std::string>{"krylov", "fgmres", "f3r"}));
  EXPECT_EQ(registry().conformance_precond_kinds(),
            (std::vector<std::string>{"jacobi", "bj", "sd-ainv"}));
}

TEST(Registry, MakePrecondMatchesLegacyMakePrimary) {
  const auto psym = small_problem(true);
  const auto pnon = small_problem(false);
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("bj"), psym)->name(), "bj-ic0");
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("bj"), pnon)->name(), "bj-ilu0");
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("bj-ilu0"), psym)->name(),
            "bj-ilu0");
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("sd-ainv"), psym)->name(),
            "sd-ainv");
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("jacobi"), psym)->name(), "jacobi");
  EXPECT_EQ(registry().make_precond(PrecondSpec::parse("none"), psym)->name(), "none");
}

TEST(Registry, UnknownKindsThrowSpecErrorNamingTheRegistered) {
  const auto p = small_problem(true);
  PrecondSpec ps;
  ps.kind = "ilut";
  try {
    [[maybe_unused]] auto unused = registry().make_precond(ps, p);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sd-ainv"), std::string::npos) << e.what();
  }
  SolverSpec ss;
  ss.kind = "gmres-dr";
  auto m = registry().make_precond(PrecondSpec::parse("jacobi"), p);
  SolverWorkspace ws;
  EXPECT_THROW(registry().make_solver(ss, p, m, &ws), SpecError);
}

TEST(Registry, MakeSolverValidatesKindShape) {
  const auto p = small_problem(true);
  auto m = registry().make_precond(PrecondSpec::parse("jacobi"), p);
  SolverWorkspace ws;
  SolverSpec bad_m;
  bad_m.kind = "cg";
  bad_m.m = 8;  // cg takes no iteration count
  EXPECT_THROW(registry().make_solver(bad_m, p, m, &ws), SpecError);
  SolverSpec bad_prec;
  bad_prec.kind = "f2";
  bad_prec.prec = Prec::FP32;  // variants have fixed precisions
  EXPECT_THROW(registry().make_solver(bad_prec, p, m, &ws), SpecError);
}

/// Acceptance pin: every solver×precond cell of the conformance catalog is
/// constructible from a spec string alone (preconditioner included) and
/// produces a converged solve on an easy problem.
TEST(Registry, EveryConformanceCellConstructibleFromSpecStringAlone) {
  for (const bool symmetric : {true, false}) {
    const auto p = small_problem(symmetric);
    for (const std::string& sk : registry().conformance_solver_kinds()) {
      for (const std::string& pk : registry().conformance_precond_kinds()) {
        for (const char* prec : {"fp64", "fp32", "fp16"}) {
          const std::string text = sk + std::string(sk == "fgmres" ? "64" : "") + "@" +
                                   prec + "/" + pk + ";nblocks=4;rtol=1e-08";
          SCOPED_TRACE(text);
          const SolverSpec spec = SolverSpec::parse(text);
          EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
          Session s(p, spec);
          const SolveResult r = s.solve();
          EXPECT_TRUE(r.converged) << r.solver << " relres " << r.final_relres;
        }
      }
    }
  }
}

TEST(Registry, EveryKindSupportsBothBackendsByDefault) {
  for (const std::string& k : registry().solver_kinds()) {
    const SolverKindInfo* info = registry().solver_info(k);
    ASSERT_NE(info, nullptr) << k;
    EXPECT_TRUE(info->supports_backend(Backend::kHost)) << k;
    EXPECT_TRUE(info->supports_backend(Backend::kSerial)) << k;
  }
}

TEST(Registry, MakeSolverRejectsUnsupportedBackend) {
  // A device-resident kind narrows its backends list; asking for one it
  // cannot build on is a SpecError naming the backend, not a silent host
  // build.  Registered here as a host-only alias of cg.
  SolverKindInfo info;
  info.kind = "test-host-only";
  info.summary = "registry backend-narrowing test kind";
  info.backends = {Backend::kHost};
  registry().add_solver(info, [](const SolverSpec& spec, const PreparedProblem& prob,
                                 std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
    SolverSpec inner = spec;
    inner.kind = "cg";
    inner.backend.reset();
    return registry().make_solver(inner, prob, std::move(m), ws);
  });
  const auto p = small_problem(true);
  auto m = registry().make_precond(PrecondSpec::parse("jacobi"), p);
  SolverWorkspace ws;
  SolverSpec ok;
  ok.kind = "test-host-only";
  ok.backend = Backend::kHost;
  EXPECT_NE(registry().make_solver(ok, p, m, &ws), nullptr);
  SolverSpec bad = ok;
  bad.backend = Backend::kSerial;
  try {
    [[maybe_unused]] auto unused = registry().make_solver(bad, p, m, &ws);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("serial"), std::string::npos) << e.what();
  }
}

/// Acceptance pin for the backend seam: every conformance cell is also
/// constructible with an EXPLICIT backend — the serial reference backend
/// converges on the same easy problems, and the Session reports the
/// backend the spec asked for.
TEST(Registry, EveryConformanceCellConstructibleWithExplicitBackend) {
  for (const bool symmetric : {true, false}) {
    const auto p = small_problem(symmetric);
    for (const std::string& sk : registry().conformance_solver_kinds()) {
      for (const std::string& pk : registry().conformance_precond_kinds()) {
        for (const char* prec : {"fp64", "fp32", "fp16"}) {
          const std::string head =
              sk + std::string(sk == "fgmres" ? "64" : "") + "@" + prec + "/" + pk;
          const std::string opts = ";nblocks=4;rtol=1e-08";
          {
            SCOPED_TRACE(head + opts + ";backend=serial");
            Session s(p, SolverSpec::parse(head + opts + ";backend=serial"));
            EXPECT_EQ(s.backend(), Backend::kSerial);
            const SolveResult r = s.solve();
            EXPECT_TRUE(r.converged) << r.solver << " relres " << r.final_relres;
          }
          {
            // The ':backend' suffix rides the head, before any options.
            SCOPED_TRACE(head + ":host" + opts);
            Session s(p, SolverSpec::parse(head + ":host" + opts));
            EXPECT_EQ(s.backend(), Backend::kHost);
            const SolveResult r = s.solve();
            EXPECT_TRUE(r.converged) << r.solver << " relres " << r.final_relres;
          }
        }
      }
    }
  }
}

TEST(Registry, VariantAliasesMatchVariantConfig) {
  // The Table 4 variants are registered spec aliases: solving through the
  // registry kind must report the canonical variant name and match the
  // variant_config-built nested solve exactly.
  const auto p = small_problem(true);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=2"), p);
  for (const std::string& name : variant_names()) {
    const SolveResult via_spec = Session(p, SolverSpec::parse(name), m).solve();
    const SolveResult via_cfg =
        Session(borrow_problem(p), variant_config(name), f3r_termination(), m).solve();
    EXPECT_EQ(via_spec.solver, name);
    EXPECT_EQ(via_spec.solver, via_cfg.solver);
    EXPECT_EQ(via_spec.iterations, via_cfg.iterations) << name;
    EXPECT_EQ(via_spec.converged, via_cfg.converged) << name;
  }
}

TEST(Registry, ConcurrentLookupAndRegistrationIsSafe) {
  // A daemon builds Sessions (registry lookups + factory calls) from many
  // threads while the test-only fault kind may still be registering: the
  // copy-on-write snapshot must keep every reader on a consistent table and
  // every info pointer valid.  Run registrations and lookups concurrently;
  // TSan (the CI tsan job runs this binary) proves the absence of races.
  const auto p = small_problem(true);
  constexpr int kThreads = 8, kRounds = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        if (t % 4 == 0) {
          // Writer: re-register a private kind (last-wins; harmless).
          PrecondKindInfo info;
          info.kind = "test-concurrent-" + std::to_string(t);
          info.summary = "registry concurrency test kind";
          registry().add_precond(info, [](const PrecondSpec& spec,
                                          const PreparedProblem& prob) {
            PrecondSpec inner = spec;
            inner.kind = "jacobi";
            return registry().make_precond(inner, prob);
          });
        }
        const SolverKindInfo* si = registry().solver_info("cg");
        if (si == nullptr || si->kind != "cg") ++failures;
        if (registry().precond_info("bj") == nullptr) ++failures;
        auto m = registry().make_precond(PrecondSpec::parse("jacobi"), p);
        SolverWorkspace ws;
        auto eng = registry().make_solver(SolverSpec::parse("cg"), p, m, &ws);
        if (eng->name() != "fp64-CG") ++failures;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The concurrently-registered kinds are usable afterwards.
  EXPECT_NE(registry().precond_info("test-concurrent-0"), nullptr);
}

TEST(Registry, KrylovKindDispatchesOnSymmetry) {
  const auto psym = small_problem(true);
  const auto pnon = small_problem(false);
  auto msym = registry().make_precond(PrecondSpec::parse("bj"), psym);
  auto mnon = registry().make_precond(PrecondSpec::parse("bj"), pnon);
  SolverWorkspace ws1, ws2;
  EXPECT_EQ(registry().make_solver(SolverSpec::parse("krylov"), psym, msym, &ws1)->name(),
            "fp64-CG");
  EXPECT_EQ(registry().make_solver(SolverSpec::parse("krylov"), pnon, mnon, &ws2)->name(),
            "fp64-BiCGStab");
}

}  // namespace
}  // namespace nk
