// Table 3 reproduction: number of invocations of the primary
// preconditioner M until convergence, CPU-node configuration.
//
// Columns mirror the paper: CG (or BiCGStab for nonsymmetric),
// fp64-FGMRES(64), and the three F3R precision configurations.  Hyphens
// mark convergence failures, as in the paper.
#include "bench_common.hpp"

using namespace nk;

namespace {

std::string count_cell(const SolveResult& r) {
  return r.converged ? Table::fmt_int(static_cast<long long>(r.precond_invocations)) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(
      opt, {"ecology2", "thermal2", "tmt_sym", "apache2", "audikw_1", "hpcg_5_5_5",
            "Transport", "atmosmodd", "t2em", "tmt_unsym", "hpgmp_5_5_5", "ss"});
  bench::print_header("Table 3 — primary preconditioner invocations until convergence", cfg);

  Table t({"matrix", "CG/BiCGStab", "fp64-FGMRES(64)", "fp64-F3R", "fp32-F3R", "fp16-F3R"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = registry().make_precond(
        PrecondSpec::parse("bj;nblocks=" + std::to_string(cfg.nblocks)), p);
    auto solve = [&](const std::string& spec) {
      return Session(borrow_problem(p), cfg.spec(spec), m).solve();
    };

    const auto kry = solve("krylov");
    const auto fg = solve("fgmres64");
    const auto f64 = solve("f3r@fp64");
    const auto f32 = solve("f3r@fp32");
    const auto f16 = solve("f3r@fp16");

    t.add_row({name, count_cell(kry), count_cell(fg), count_cell(f64), count_cell(f32),
               count_cell(f16)});
  }
  bench::finish_table(t, cfg);
  std::cout << "expected shape (paper Table 3): the three F3R columns agree within a few\n"
               "percent; F3R needs fewer invocations than FGMRES(64) on hard problems and\n"
               "somewhat more than CG/BiCGStab on easy ones (64-invocation granularity).\n";
  return 0;
}
