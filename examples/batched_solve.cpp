// Batched multi-RHS solving with reusable solver workspaces — the
// setup/solve lifecycle.
//
//   1. Prepare a problem once (generate → scale → multi-precision copies).
//   2. Build the preconditioner once (fp64 factorization, typed handles).
//   3. Solve a BATCH of right-hand sides through one solver: the matrix
//      and factor sweeps are shared across the batch (SpMM), and every
//      column agrees with the sequential solver on that column alone.
//   4. Re-run against a second matrix through the SAME SolverWorkspace:
//      the second setup performs zero allocation.
//
// Build: cmake --build build --target batched_solve
#include <cstdio>

#include "nkrylov.hpp"

using namespace nk;

int main() {
  const int k = 8;

  // --- setup (once per matrix) -------------------------------------------
  PreparedProblem p = prepare_standin("ecology2", 1);
  auto m = registry().make_precond(PrecondSpec::parse("bj;nblocks=64"), p);
  const std::size_t n = p.b.size();
  std::printf("problem %s: n=%d, nnz=%d, precond %s\n", p.name.c_str(),
              static_cast<int>(p.a->size()), static_cast<int>(p.a->csr_fp64().nnz()),
              m->name().c_str());

  // --- batched flat solve through the spec-driven facade ------------------
  std::vector<double> B = batch_rhs(p, k);
  std::vector<double> X(n * k, 0.0);
  Session cg(p, SolverSpec::parse("cg"), m);
  auto many = cg.solve_many(std::span<const double>(B), std::span<double>(X), k);
  std::printf("batched %s, %d RHS: %.3fs total (batch)\n", many[0].solver.c_str(), k,
              many[0].seconds);
  for (int c = 0; c < k; ++c)
    std::printf("  column %d: %s in %d iters, relres %.2e\n", c,
                many[c].converged ? "converged" : "FAILED", many[c].iterations,
                many[c].final_relres);

  // --- ragged waves: same batch, at most 4 columns in flight --------------
  // The compacting scheduler refills a retiring column's slot from the
  // pending queue, so one wave-sized workspace serves any RHS count and
  // every column still reproduces its sequential solve bit-for-bit.
  X.assign(n * k, 0.0);
  Session cg_waved(p, SolverSpec::parse("cg;wave=4"), m);
  auto waved = cg_waved.solve_many(std::span<const double>(B), std::span<double>(X), k);
  std::printf("same batch as 4-wide ragged waves: %.3fs, col0 %d iters (identical)\n",
              waved[0].seconds, waved[0].iterations);

  // --- batched nested solve sharing one workspace across two matrices ----
  SolverWorkspace ws;
  const Termination term = f3r_termination(1e-8);
  {
    X.assign(n * k, 0.0);  // fresh zero guess (X holds the CG solutions)
    NestedSolver s1(p.a, m, f3r_config(Prec::FP16), &ws);
    auto r = s1.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                           static_cast<std::ptrdiff_t>(n), k, term);
    std::printf("fp16-F3R batch on %s: col0 %s in %d outer iters (workspace %.1f MB, "
                "%llu allocations)\n",
                p.name.c_str(), r[0].converged ? "converged" : "failed", r[0].iterations,
                static_cast<double>(ws.bytes()) / 1e6,
                static_cast<unsigned long long>(ws.allocations()));
  }

  PreparedProblem p2 = prepare_standin("thermal2", 1);
  auto m2 = registry().make_precond(PrecondSpec::parse("bj;nblocks=64"), p2);
  const auto allocs_before = ws.allocations();
  {
    std::vector<double> B2 = batch_rhs(p2, k);
    X.assign(p2.b.size() * k, 0.0);
    NestedSolver s2(p2.a, m2, f3r_config(Prec::FP16), &ws);
    auto r = s2.solve_many(B2.data(), static_cast<std::ptrdiff_t>(p2.b.size()), X.data(),
                           static_cast<std::ptrdiff_t>(p2.b.size()), k, term);
    std::printf("fp16-F3R batch on %s: col0 %s in %d outer iters, workspace "
                "re-allocations: %llu (zero = fully reused)\n",
                p2.name.c_str(), r[0].converged ? "converged" : "failed", r[0].iterations,
                static_cast<unsigned long long>(ws.allocations() - allocs_before));
  }
  return 0;
}
