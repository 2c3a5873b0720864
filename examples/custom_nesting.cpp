// Build-your-own nested solver: uses the Section 4.1 memory-access model
// to derive a nesting for a given matrix (as the paper derives F3R from
// F^64), then assembles it with the NestedConfig API, runs it against F3R
// and the flat baseline, and reports whether the model's prediction held.
//
// Run:  ./custom_nesting [--problem=hpgmp_5_5_5] [--budget=64]
#include <iostream>

#include "base/options.hpp"
#include "base/table.hpp"
#include "core/cost_model.hpp"
#include "core/f3r.hpp"
#include "core/session.hpp"

int main(int argc, char** argv) {
  nk::Options opt(argc, argv);
  const std::string problem = opt.get("problem", "hpgmp_5_5_5");
  const int budget = opt.get_int("budget", 64);  // primary applications per outer iter
  const double rtol = opt.get_double("rtol", 1e-8);

  auto p = nk::prepare_standin(problem, opt.get_int("scale", 1));
  auto m = nk::registry().make_precond(nk::PrecondSpec::parse("bj;nblocks=64"), p);
  std::cout << "problem " << p.name << ": n=" << p.a->size()
            << ", nnz/row=" << nk::Table::fmt(p.a->csr_fp64().nnz_per_row(), 1) << "\n";

  // 1. Ask the model how to split a budget of `budget` primary
  //    applications (the paper's reference point is F^64).
  const double ca = nk::access_constant(p.a->csr_fp64().nnz_per_row(), 8);
  const auto advice = nk::advise_split(ca, ca, budget);
  std::cout << "cost model: " << nk::advice_summary(advice) << "\n";

  // 2. Assemble the advised two-level tuple, mapping precisions like F3R
  //    does: fp32 second level; fp16 for a Richardson innermost.
  nk::NestedConfig custom;
  custom.name = "advised";
  nk::LevelSpec outer;  // fp64 FGMRES, paper-style outermost
  outer.m = 100;
  custom.levels.push_back(outer);
  if (advice.split) {
    nk::LevelSpec mid;
    mid.m = advice.m_outer;
    mid.mat = nk::Prec::FP32;
    mid.vec = nk::Prec::FP32;
    custom.levels.push_back(mid);
    nk::LevelSpec inner;
    inner.kind = advice.inner_kind == 'R' ? nk::SolverKind::Richardson
                                          : nk::SolverKind::FGMRES;
    inner.m = advice.m_inner;
    inner.mat = nk::Prec::FP16;
    inner.vec = advice.inner_kind == 'R' ? nk::Prec::FP16 : nk::Prec::FP32;
    custom.levels.push_back(inner);
    custom.precond_storage = nk::Prec::FP16;
  } else {
    custom.levels[0].m = budget;
  }
  std::cout << "assembled " << custom.name << " = " << nk::tuple_notation(custom) << "\n";

  // 3. Race it against fp16-F3R and the flat FGMRES(budget) baseline.
  nk::Table t({"solver", "tuple", "outer-its", "M-applies", "time[s]", "conv"});
  auto row = [&](const nk::SolveResult& r, const std::string& tuple) {
    t.add_row({r.solver, tuple, nk::Table::fmt_int(r.iterations),
               nk::Table::fmt_int(static_cast<long long>(r.precond_invocations)),
               nk::Table::fmt(r.seconds, 3), r.converged ? "yes" : "NO"});
  };
  auto solve = [&](const std::string& text) {
    nk::SolverSpec spec = nk::SolverSpec::parse(text);
    spec.rtol = rtol;
    spec.max_iters = opt.get_int("max-iters", 5000);
    return nk::Session(nk::borrow_problem(p), spec, m).solve();
  };
  row(nk::Session(nk::borrow_problem(p), custom, nk::f3r_termination(rtol), m).solve(),
      nk::tuple_notation(custom));
  row(solve("f3r@fp16"), "(F^100, F^8, F^4, R^2, M)");
  row(solve("fgmres" + std::to_string(budget)),
      "(F^" + std::to_string(budget) + ", M) restarted");
  t.print(std::cout);
  return 0;
}
