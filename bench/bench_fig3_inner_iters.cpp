// Figure 3 reproduction: sensitivity of fp16-F3R to the inner iteration
// counts m2, m3, m4.
//
// For each matrix, runs fp16-F3R with the default (8, 4, 2) and then the
// paper's sweep values — m4 ∈ {1,3,4}, m3 ∈ {2,3,5,6}, m2 ∈ {6,7,9,10} —
// and prints, per variant, the two ratios the figure plots:
//   relative convergence speed = (default M-applies) / (variant M-applies)
//   relative performance       = (default time)      / (variant time)
// Values > 1 mean better than the default, matching the figure's axes.
#include "bench_common.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(
      opt, {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5", "atmosmodd"});
  bench::print_header("Figure 3 — fp16-F3R vs inner iteration counts (m2, m3, m4)", cfg);

  struct Variant {
    std::string label;
    F3rParams prm;
  };
  std::vector<Variant> variants;
  for (int m4 : {1, 3, 4}) {
    F3rParams p;
    p.m4 = m4;
    variants.push_back({"m4=" + std::to_string(m4), p});
  }
  for (int m3 : {2, 3, 5, 6}) {
    F3rParams p;
    p.m3 = m3;
    variants.push_back({"m3=" + std::to_string(m3), p});
  }
  for (int m2 : {6, 7, 9, 10}) {
    F3rParams p;
    p.m2 = m2;
    variants.push_back({"m2=" + std::to_string(m2), p});
  }

  Table t({"matrix", "variant", "rel-conv-speed", "rel-performance", "M-applies", "conv"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = registry().make_precond(
        PrecondSpec::parse("bj;nblocks=" + std::to_string(cfg.nblocks)), p);

    const auto base = bench::best_of(cfg.runs, [&] {
      return Session(borrow_problem(p), cfg.spec("f3r@fp16"), m).solve();
    });
    if (!base.converged) {
      t.add_row({name, "default(8-4-2)", "-", "-", "-", "NO"});
      continue;
    }
    t.add_row({name, "default(8-4-2)", "1.00", "1.00",
               Table::fmt_int(static_cast<long long>(base.precond_invocations)), "yes"});

    for (const auto& v : variants) {
      const auto r = bench::best_of(cfg.runs, [&] {
        return Session(borrow_problem(p), f3r_config(Prec::FP16, v.prm),
                       f3r_termination(cfg.rtol), m)
            .solve();
      });
      if (!r.converged) {
        t.add_row({name, v.label, "-", "-", "-", "NO"});
        continue;
      }
      const double conv = static_cast<double>(base.precond_invocations) /
                          static_cast<double>(r.precond_invocations);
      const double perf = base.seconds / r.seconds;
      t.add_row({name, v.label, Table::fmt(conv, 2), Table::fmt(perf, 2),
                 Table::fmt_int(static_cast<long long>(r.precond_invocations)), "yes"});
    }
  }
  bench::finish_table(t, cfg);
  std::cout << "expected shape (paper Fig. 3): m4=3,4 degrade convergence AND performance;\n"
               "m4=1 sometimes converges faster but runs slower; m3 and m2 move results\n"
               "within roughly 0.5-1.4x with no clear winner.\n";
  return 0;
}
