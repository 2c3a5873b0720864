// Matrix Market CLI solver: run any solver configuration the registry
// knows on a user-supplied .mtx file.  Users with the real SuiteSparse
// collection can reproduce the paper's per-matrix rows exactly:
//
//   ./mm_solve ecology2.mtx --solver=f3r@fp16
//   ./mm_solve atmosmodd.mtx --solver=bicgstab@fp16 --alpha=1.0
//   ./mm_solve audikw_1.mtx --solver=fp16-F3R --gpu-sim --alpha=1.6
//
// --solver takes a spec string (see core/spec.hpp): "f3r@fp16",
// "fgmres64", "ir-gmres8@fp32", the Table 4 variants ("F2", "fp16-F3",
// ...), and the paper's legacy names ("fp16-CG", "fp32-F3R") all parse.
// An unknown solver prints a one-line error naming the registered kinds
// and exits 2.  The preconditioner is chosen by --gpu-sim (SD-AINV) vs
// default (block-Jacobi ILU(0)/IC(0)); a "/precond" part in the spec
// overrides it.
#include <iostream>

#include "base/env.hpp"
#include "base/options.hpp"
#include "core/f3r.hpp"
#include "core/session.hpp"
#include "sparse/io_matrix_market.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  nk::require_backend_env_cli();
  nk::Options opt(argc, argv);
  if (opt.positional().empty() || opt.wants_help()) {
    std::cerr << "usage: mm_solve FILE.mtx [--solver=f3r@fp16] [--rtol=1e-8]\n"
                 "         [--alpha=1.0] [--nblocks=64] [--gpu-sim] [--max-iters=19200]\n";
    return opt.wants_help() ? 0 : 2;
  }
  const std::string path = opt.positional()[0];
  const std::string solver = opt.get("solver", "f3r@fp16");
  const double rtol = opt.get_double("rtol", 1e-8);
  const double alpha = opt.get_double("alpha", 1.0);
  const bool gpu_sim = opt.get_bool("gpu-sim", false);

  nk::CsrMatrix<double> a;
  try {
    a = nk::read_matrix_market_file(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto stats = nk::analyze(a);
  std::cout << path << ": " << nk::stats_summary(stats) << "\n";

  auto p = nk::prepare_problem(path, std::move(a), stats.numerically_symmetric, alpha, alpha,
                               opt.get_int64("seed", 7), gpu_sim);

  nk::SolveResult res;
  if (solver == "fp16-F3R-best") {  // a search over specs, not a spec itself
    auto m = nk::registry().make_precond(
        nk::PrecondSpec::parse(std::string(gpu_sim ? "sd-ainv" : "bj") +
                               ";nblocks=" + std::to_string(opt.get_int("nblocks", 64))),
        p);
    res = nk::run_f3r_best(p, m, rtol).result;
  } else {
    // Malformed/unknown --solver values exit(2) with the registered kinds
    // listed — same discipline as the numeric flag parsers.  Dedicated
    // flags override the spec's options only when actually given, so
    // --solver="cg;rtol=1e-4" keeps its in-spec settings.
    nk::SolverSpec spec = nk::parse_solver_spec_cli("solver", solver);
    if (opt.has("rtol")) spec.rtol = rtol;
    if (opt.has("max-iters")) spec.max_iters = opt.get_int("max-iters", 19200);
    if (solver.find('/') == std::string::npos) {
      // No explicit precond in the spec: --gpu-sim picks the paper's node.
      spec.precond.kind = gpu_sim ? "sd-ainv" : "bj";
    }
    if (opt.has("nblocks") || spec.precond.nblocks == 0)
      spec.precond.nblocks = opt.get_int("nblocks", 64);
    try {  // constructor-rejected values (e.g. ssor omega out of range)
      nk::Session session(std::move(p), spec);
      std::cout << "solver " << session.solver_name() << " = " << spec.to_string()
                << " (M = " << session.precond().name() << ")\n";
      res = session.solve();
    } catch (const std::exception& e) {
      std::cerr << "error: invalid spec '" << solver << "' for --solver: " << e.what()
                << "\n";
      return 2;
    }
  }
  std::cout << summarize(res) << "\n";
  return res.converged ? 0 : 1;
}
