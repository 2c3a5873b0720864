// Figure 5 reproduction: the weight-updating cycle c of the adaptive
// Richardson (Algorithm 1), c ∈ {1, 4, 16, 32, 128, 256} vs default 64.
//
// c = 1 recomputes the locally optimal ω every invocation (equivalent in
// spirit to GMRES(1)) and pays an extra SpMV + two reductions each time;
// large c updates rarely and relies on the running average.
#include "bench_common.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(opt, {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5"});
  bench::print_header("Figure 5 — adaptive weight-updating cycle c (vs c=64)", cfg);

  Table t({"matrix", "c", "rel-conv-speed", "rel-performance", "M-applies", "conv"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = registry().make_precond(
        PrecondSpec::parse("bj;nblocks=" + std::to_string(cfg.nblocks)), p);

    const auto base = bench::best_of(cfg.runs, [&] {
      return Session(borrow_problem(p), cfg.spec("f3r@fp16"), m).solve();
    });
    t.add_row({name, "64 (default)", "1.00", "1.00",
               base.converged
                   ? Table::fmt_int(static_cast<long long>(base.precond_invocations))
                   : "-",
               base.converged ? "yes" : "NO"});
    if (!base.converged) continue;

    for (int c : {1, 4, 16, 32, 128, 256}) {
      F3rParams prm;
      prm.cycle = c;
      const auto r = bench::best_of(cfg.runs, [&] {
        return Session(borrow_problem(p), f3r_config(Prec::FP16, prm),
                       f3r_termination(cfg.rtol), m)
            .solve();
      });
      if (!r.converged) {
        t.add_row({name, std::to_string(c), "-", "-", "-", "NO"});
        continue;
      }
      const double conv = static_cast<double>(base.precond_invocations) /
                          static_cast<double>(r.precond_invocations);
      t.add_row({name, std::to_string(c), Table::fmt(conv, 2),
                 Table::fmt(base.seconds / r.seconds, 2),
                 Table::fmt_int(static_cast<long long>(r.precond_invocations)), "yes"});
    }
  }
  bench::finish_table(t, cfg);
  std::cout << "expected shape (paper Fig. 5): no strong trend; c=1 adds computation\n"
               "without better convergence; very large c slightly slows convergence but\n"
               "costs less per invocation.\n";
  return 0;
}
