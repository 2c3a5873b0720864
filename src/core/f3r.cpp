#include "core/f3r.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/cost_model.hpp"
#include "core/session.hpp"

namespace nk {

std::string f3r_name(Prec lowest) { return std::string(prec_name(lowest)) + "-F3R"; }

NestedConfig f3r_config(Prec lowest, const F3rParams& p) {
  NestedConfig cfg;
  cfg.name = f3r_name(lowest);

  LevelSpec l1;  // outermost: always fp64 FGMRES
  l1.kind = SolverKind::FGMRES;
  l1.m = p.m1;
  l1.mat = Prec::FP64;
  l1.vec = Prec::FP64;

  LevelSpec l2;
  l2.kind = SolverKind::FGMRES;
  l2.m = p.m2;

  LevelSpec l3;
  l3.kind = SolverKind::FGMRES;
  l3.m = p.m3;

  LevelSpec l4;
  l4.kind = SolverKind::Richardson;
  l4.m = p.m4;
  l4.cycle = p.cycle;
  l4.adaptive = p.adaptive;
  l4.fixed_weight = p.fixed_weight;

  switch (lowest) {
    case Prec::FP64:
      l2.mat = l2.vec = Prec::FP64;
      l3.mat = l3.vec = Prec::FP64;
      l4.mat = l4.vec = Prec::FP64;
      cfg.precond_storage = Prec::FP64;
      break;
    case Prec::FP32:
      l2.mat = l2.vec = Prec::FP32;
      l3.mat = l3.vec = Prec::FP32;
      l4.mat = l4.vec = Prec::FP32;
      cfg.precond_storage = Prec::FP32;
      break;
    case Prec::FP16:  // Table 1
      l2.mat = l2.vec = Prec::FP32;
      l3.mat = Prec::FP16;
      l3.vec = Prec::FP32;
      l4.mat = l4.vec = Prec::FP16;
      cfg.precond_storage = Prec::FP16;
      break;
  }
  cfg.levels = {l1, l2, l3, l4};
  return cfg;
}

Termination f3r_termination(double rtol) {
  Termination t;
  t.rtol = rtol;
  t.max_restarts = 3;  // "F3R was restarted only three times"
  return t;
}

BestSearchResult run_f3r_best(const PreparedProblem& p, std::shared_ptr<PrimaryPrecond> m,
                              double rtol, int budget) {
  // Candidate box from the paper's fp16-F3R-best rows: m2 ∈ 6..10,
  // m3 ∈ 2..6, m4 ∈ {1,2}; ordered by the memory-access model so the
  // cheapest configurations are tried first under a budget.
  struct Cand {
    F3rParams prm;
    double model_cost;
  };
  const double ca = access_constant(p.a->csr_fp64().nnz_per_row(), 2);  // fp16 values
  const double cm = ca;  // M has A-like sparsity for ILU(0)/IC(0)
  std::vector<Cand> cands;
  for (int m2 : {8, 6, 7, 9, 10})
    for (int m3 : {4, 2, 3, 5, 6})
      for (int m4 : {2, 1}) {
        F3rParams prm;
        prm.m2 = m2;
        prm.m3 = m3;
        prm.m4 = m4;
        const double cost = cost_nested(
            ca, cm,
            {{'F', prm.m2}, {'F', prm.m3}, {'R', prm.m4}});
        cands.push_back({prm, cost});
      }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) { return a.model_cost < b.model_cost; });

  BestSearchResult best;
  best.result.seconds = std::numeric_limits<double>::max();
  for (const Cand& c : cands) {
    if (best.tried >= budget) break;
    ++best.tried;
    auto res = Session(borrow_problem(p), f3r_config(Prec::FP16, c.prm),
                       f3r_termination(rtol), m)
                   .solve();
    if (res.converged &&
        (!best.result.converged || res.seconds < best.result.seconds)) {
      best.result = res;
      best.params = c.prm;
      best.param_label = std::to_string(c.prm.m2) + "-" + std::to_string(c.prm.m3) + "-" +
                         std::to_string(c.prm.m4);
    }
  }
  if (best.param_label.empty()) best.param_label = "-";
  best.result.solver = "fp16-F3R-best";
  return best;
}

}  // namespace nk
