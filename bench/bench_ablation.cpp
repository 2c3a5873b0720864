// Ablations beyond the paper's figures, covering the design choices
// DESIGN.md calls out and the paper's future-work directions:
//
//   A. F3R vs conventional two-level iterative refinement (fp64 Richardson
//      outer + low-precision GMRES(8) inner) — the prior-work baseline the
//      nested approach improves on.
//   B. Dynamic inner termination (future work #2): inner FGMRES levels
//      stop once their Givens estimate drops by a factor.
//   C. Chebyshev as the third-level solver (the nested framework "accepts
//      any iterative method"; McInnes et al. use Chebyshev).
//   D. Primary preconditioner sweep: ILU(0)/IC(0) vs SD-AINV vs SSOR vs
//      Neumann(2) vs Jacobi under fp16-F3R.
#include "bench_common.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(opt, {"hpcg_5_5_5", "hpgmp_5_5_5", "thermal2"});
  bench::print_header("ablations: IR baseline, dynamic termination, Chebyshev, preconditioners",
                      cfg);

  // --- A + B + C on each matrix ---
  Table t({"matrix", "solver", "outer-its", "M-applies", "time[s]", "conv"});
  auto row = [&](const std::string& name, const SolveResult& r) {
    t.add_row({name, r.solver, Table::fmt_int(r.iterations),
               Table::fmt_int(static_cast<long long>(r.precond_invocations)),
               Table::fmt(r.seconds, 3), r.converged ? "yes" : "NO"});
  };

  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = registry().make_precond(
        PrecondSpec::parse("bj;nblocks=" + std::to_string(cfg.nblocks)), p);
    auto solve = [&](const std::string& spec) {
      return Session(borrow_problem(p), cfg.spec(spec), m).solve();
    };
    auto solve_nested = [&](NestedConfig nc) {
      return Session(borrow_problem(p), std::move(nc), f3r_termination(cfg.rtol), m).solve();
    };

    row(name, solve("f3r@fp16"));

    // A: conventional iterative refinement baselines.
    row(name, solve("ir-gmres8@fp32"));
    row(name, solve("ir-gmres8@fp16"));

    // B: dynamic inner termination on levels 2 and 3.
    for (double irt : {0.5, 0.1, 0.01}) {
      NestedConfig dyn = f3r_config(Prec::FP16);
      dyn.name = "fp16-F3R-dyn(" + Table::fmt(irt, 2) + ")";
      dyn.levels[1].inner_rtol = irt;
      dyn.levels[2].inner_rtol = irt;
      row(name, solve_nested(dyn));
    }

    // C: Chebyshev at the third level.
    NestedConfig cheb = f3r_config(Prec::FP16);
    cheb.name = "fp16-F2C-R";
    cheb.levels[2].kind = SolverKind::Chebyshev;
    cheb.levels[2].eig_ratio = 20.0;
    row(name, solve_nested(cheb));
  }
  print_banner(std::cout, "A/B/C: refinement baseline, dynamic termination, Chebyshev level");
  bench::finish_table(t, cfg);

  // --- D: primary preconditioner sweep under fp16-F3R ---
  Table tp({"matrix", "primary M", "outer-its", "M-applies", "time[s]", "conv"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    const std::string nb = ";nblocks=" + std::to_string(cfg.nblocks);
    const std::pair<std::string, std::string> primaries[] = {
        {"bj-ilu0/ic0", "bj" + nb},
        {"sd-ainv", "sd-ainv"},
        {"ssor(1.0)", "ssor;omega=1.0" + nb},
        {"neumann(2)", "neumann;degree=2"},
        {"jacobi", "jacobi"}};
    for (const auto& [label, precond] : primaries) {
      auto m = registry().make_precond(PrecondSpec::parse(precond), p);
      const auto r = Session(borrow_problem(p), cfg.spec("f3r@fp16"), m).solve();
      tp.add_row({name, label, Table::fmt_int(r.iterations),
                  Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                  Table::fmt(r.seconds, 3), r.converged ? "yes" : "NO"});
    }
  }
  print_banner(std::cout, "D: primary preconditioner sweep under fp16-F3R");
  tp.print(std::cout);
  return 0;
}
