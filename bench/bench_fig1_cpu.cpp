// Figure 1 reproduction (CPU node): performance relative to fp64-F3R.
//
// For every matrix, runs the full Figure 1 solver set with the CPU-node
// configuration (CSR storage, block-Jacobi ILU(0)/IC(0) with the Table 2
// α_ILU factors):
//
//   fp64-F3R (baseline) · fp32-F3R · fp16-F3R
//   fp64/fp32/fp16-CG          (symmetric matrices)
//   fp64/fp32/fp16-BiCGStab    (nonsymmetric matrices)
//   fp64/fp32/fp16-FGMRES(64)
//   fp16-F3R-best (--best; parameter search over the paper's m2-m3-m4 box)
//
// Output mirrors the figure: one speedup-over-fp64-F3R row per matrix,
// plus the fp64-F3R absolute time and the fp16-F3R-best parameters that
// the paper prints above the bars.
#include "bench_common.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(
      opt, {"ecology2", "thermal2", "tmt_sym", "apache2", "audikw_1", "hpcg_5_5_5",
            "Transport", "atmosmodd", "t2em", "tmt_unsym", "hpgmp_5_5_5", "ss"});
  bench::print_header("Figure 1 — CPU node: speedup over fp64-F3R", cfg);

  Table summary({"matrix", "sym", "fp64-F3R[s]", "fp32-F3R", "fp16-F3R", "fp64-KRY",
                 "fp32-KRY", "fp16-KRY", "fp64-FG64", "fp32-FG64", "fp16-FG64", "best",
                 "best-params"});
  std::vector<double> sp32, sp16;  // speedup collections for the closing summary

  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = registry().make_precond(
        PrecondSpec::parse("bj;nblocks=" + std::to_string(cfg.nblocks)), p);
    auto solve = [&](const std::string& spec) {
      return bench::best_of(cfg.runs, [&] {
        return Session(borrow_problem(p), cfg.spec(spec), m).solve();
      });
    };
    const auto base = solve("f3r@fp64");
    const auto r32 = solve("f3r@fp32");
    const auto r16 = solve("f3r@fp16");
    const auto k64 = solve("krylov@fp64");
    const auto k32 = solve("krylov@fp32");
    const auto k16 = solve("krylov@fp16");
    const auto g64 = solve("fgmres64@fp64");
    const auto g32 = solve("fgmres64@fp32");
    const auto g16 = solve("fgmres64@fp16");

    std::string best_cell = "-", best_params = "-";
    if (cfg.best) {
      const auto best = run_f3r_best(p, m, cfg.rtol, 10);
      best_cell = bench::speedup_cell(base, best.result);
      best_params = best.param_label;
    }

    summary.add_row({name, p.symmetric ? "y" : "n",
                     base.converged ? Table::fmt(base.seconds, 3) : "FAIL",
                     bench::speedup_cell(base, r32), bench::speedup_cell(base, r16),
                     bench::speedup_cell(base, k64), bench::speedup_cell(base, k32),
                     bench::speedup_cell(base, k16), bench::speedup_cell(base, g64),
                     bench::speedup_cell(base, g32), bench::speedup_cell(base, g16),
                     best_cell, best_params});

    if (base.converged && r32.converged) sp32.push_back(base.seconds / r32.seconds);
    if (base.converged && r16.converged) sp16.push_back(base.seconds / r16.seconds);

    // Per-matrix detail (iteration/invocation accounting feeding Table 3).
    std::cout << "\n-- " << name << " (n=" << p.a->size()
              << ", nnz=" << p.a->csr_fp64().nnz() << ", M=" << m->name() << ") --\n";
    Table detail({"solver", "conv", "outer-its", "M-applies", "time[s]", "relres"});
    for (const auto* r : {&base, &r32, &r16, &k64, &k32, &k16, &g64, &g32, &g16}) {
      detail.add_row({r->solver, r->converged ? "yes" : "NO",
                      Table::fmt_int(r->iterations),
                      Table::fmt_int(static_cast<long long>(r->precond_invocations)),
                      Table::fmt(r->seconds, 3), Table::fmt_sci(r->final_relres)});
    }
    detail.print(std::cout);
  }

  print_banner(std::cout, "Figure 1 summary (values are speedup over fp64-F3R)");
  bench::finish_table(summary, cfg);
  if (!sp32.empty())
    std::cout << "geomean speedup fp32-F3R over fp64-F3R: " << Table::fmt(geomean(sp32), 2)
              << "x (paper CPU: ~1.46x)\n";
  if (!sp16.empty())
    std::cout << "geomean speedup fp16-F3R over fp64-F3R: " << Table::fmt(geomean(sp16), 2)
              << "x (paper CPU: 1.59-2.42x)\n";
  std::cout << "note: fp16 gains require the working set to exceed the last-level cache;\n"
               "      increase --scale to enter the paper's memory-bound regime.\n";
  return 0;
}
