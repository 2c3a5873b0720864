// Mixed-precision tour: run every solver family of the paper on one
// problem and print the comparison the paper's Figure 1 makes per matrix —
// fp64/fp32/fp16-F3R, fp{64,32,16}-CG (or BiCGStab when nonsymmetric), and
// fp{64,32,16}-FGMRES(64).
//
// Run:  ./mixed_precision_tour [--problem=hpcg_5_5_5] [--scale=1]
//       [--gpu-sim] (sliced-ELLPACK + SD-AINV instead of CSR + ILU/IC)
#include <iostream>

#include "base/env.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "core/session.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  nk::Options opt(argc, argv);
  const std::string name = opt.get("problem", "hpcg_5_5_5");
  const int scale = opt.get_int("scale", 1);
  const bool gpu_sim = opt.get_bool("gpu-sim", false);
  const double rtol = opt.get_double("rtol", 1e-8);
  const int max_iters = opt.get_int("max-iters", 19200);

  std::cout << "nkrylov mixed-precision tour (" << nk::env_summary() << ")\n";
  nk::PreparedProblem p = nk::prepare_standin(name, scale, 7, gpu_sim);
  std::cout << "problem " << p.name << ": n=" << p.a->size()
            << " nnz=" << p.a->csr_fp64().nnz() << (p.symmetric ? " symmetric" : " nonsymmetric")
            << (gpu_sim ? " [GPU-sim: SELL-32 + SD-AINV]" : " [CPU: CSR + block-Jacobi ILU/IC]")
            << "\n";

  auto m = nk::registry().make_precond(nk::PrecondSpec::parse(gpu_sim ? "sd-ainv" : "bj"), p);

  nk::Table table({"solver", "converged", "outer-its", "M-applies", "time[s]", "relres"});
  auto add = [&](const std::string& text) {
    nk::SolverSpec spec = nk::SolverSpec::parse(text);
    spec.rtol = rtol;
    spec.max_iters = max_iters;
    const nk::SolveResult r = nk::Session(nk::borrow_problem(p), spec, m).solve();
    table.add_row({r.solver, r.converged ? "yes" : "NO", nk::Table::fmt_int(r.iterations),
                   nk::Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                   nk::Table::fmt(r.seconds, 4), nk::Table::fmt_sci(r.final_relres)});
  };

  // The three F3R precision configurations.
  for (const char* prec : {"fp64", "fp32", "fp16"}) add(std::string("f3r@") + prec);

  // The paper's conventional baselines with fp64/fp32/fp16 preconditioners:
  // "krylov" is CG on symmetric problems, BiCGStab otherwise.
  for (const char* prec : {"fp64", "fp32", "fp16"}) {
    add(std::string("krylov@") + prec);
    add(std::string("fgmres64@") + prec);
  }

  table.print(std::cout);
  return 0;
}
