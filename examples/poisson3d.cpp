// Domain scenario: steady-state heat conduction (3-D Poisson) with a
// localized source — the workload class behind HPCG and the paper's SPD
// matrices.  Solves  -Δu = f  on the unit cube with a Gaussian source at
// the center, once per F3R precision configuration, and verifies that all
// three produce the same physical answer (peak temperature and its
// location) while costing different amounts of time.
//
// Run:  ./poisson3d [--n=48] [--rtol=1e-8]
#include <cmath>
#include <iostream>

#include "base/options.hpp"
#include "base/table.hpp"
#include "core/session.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/scaling.hpp"

int main(int argc, char** argv) {
  nk::Options opt(argc, argv);
  const nk::index_t n = opt.get_int("n", 48);
  const double rtol = opt.get_double("rtol", 1e-8);

  std::cout << "3-D Poisson heat problem on a " << n << "^3 grid (" << n * n * n
            << " unknowns)\n";

  // Assemble -Δu = f with a Gaussian heat source at the cube center.
  nk::CsrMatrix<double> a = nk::gen::laplace3d(n, n, n);
  const double h = 1.0 / (n + 1);
  std::vector<double> f(static_cast<std::size_t>(n) * n * n);
  for (nk::index_t z = 0; z < n; ++z)
    for (nk::index_t y = 0; y < n; ++y)
      for (nk::index_t x = 0; x < n; ++x) {
        const double dx = (x + 1) * h - 0.5, dy = (y + 1) * h - 0.5, dz = (z + 1) * h - 0.5;
        const double r2 = dx * dx + dy * dy + dz * dz;
        f[(z * n + y) * n + x] = h * h * std::exp(-100.0 * r2);  // scaled source
      }

  // The solver works on the diagonally scaled system à x̃ = b̃ with
  // b̃ = S b, x = S x̃ (S = D^{-1/2}); see sparse/scaling.hpp.
  auto scaled = a;
  const auto sres = nk::diagonal_scale_symmetric(scaled);
  std::vector<double> b = f;
  nk::apply_scale(sres.scale, b);

  nk::PreparedProblem p;
  p.name = "poisson3d";
  p.symmetric = true;
  p.a = std::make_shared<nk::MultiPrecMatrix>(std::move(scaled));
  p.b = b;

  auto m = nk::registry().make_precond(nk::PrecondSpec::parse("bj;nblocks=16"), p);

  nk::Table t({"solver", "outer-its", "M-applies", "time[s]", "relres", "peak-u", "peak-at"});
  for (const char* spec_text : {"f3r@fp64", "f3r@fp32", "f3r@fp16"}) {
    nk::SolverSpec spec = nk::SolverSpec::parse(spec_text);
    spec.rtol = rtol;
    nk::Session session(nk::borrow_problem(p), spec, m);
    std::vector<double> xt(p.b.size(), 0.0);
    const auto res = session.solve(std::span<const double>(p.b), std::span<double>(xt));
    if (!res.converged) {
      std::cerr << res.solver << " failed to converge\n";
      return 1;
    }
    // Map back to physical u and find the hottest point.
    nk::apply_scale(sres.scale, xt);
    double peak = 0.0;
    std::size_t at = 0;
    for (std::size_t i = 0; i < xt.size(); ++i)
      if (xt[i] > peak) {
        peak = xt[i];
        at = i;
      }
    const auto ax = static_cast<nk::index_t>(at % n);
    const auto ay = static_cast<nk::index_t>((at / n) % n);
    const auto az = static_cast<nk::index_t>(at / (static_cast<std::size_t>(n) * n));
    t.add_row({res.solver, nk::Table::fmt_int(res.iterations),
               nk::Table::fmt_int(static_cast<long long>(res.precond_invocations)),
               nk::Table::fmt(res.seconds, 3), nk::Table::fmt_sci(res.final_relres),
               nk::Table::fmt_sci(peak, 4),
               "(" + std::to_string(ax) + "," + std::to_string(ay) + "," +
                   std::to_string(az) + ")"});
  }
  t.print(std::cout);
  std::cout << "all precisions must agree on the peak location (grid center ~"
            << (n - 1) / 2 << ") and on peak-u to ~6 digits: the precision\n"
            << "reduction lives inside the solver, not in the answer.\n";
  return 0;
}
