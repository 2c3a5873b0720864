#include "core/tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "base/env.hpp"
#include "core/fingerprint.hpp"
#include "core/tune/perf_db.hpp"

namespace nk::tune {

namespace {

/// Iteration cap for one probe solve.  Deliberately small: a probe only
/// needs enough outer iterations to expose the convergence RATE (scored as
/// residual digits per modeled access), not to finish the solve.  The
/// nested kinds are capped by restarts instead (one outer pass; the nested
/// driver checks convergence in the outermost level, so a converging probe
/// still stops at the target).
constexpr int kProbeIters = 40;

/// The probe variant of a candidate spec: the caller's tolerance, no
/// history ring, tight work caps.  Everything else (wave/backend)
/// stays default — probes are scalar solves on the session's workspace.
SolverSpec probe_spec(const Candidate& cand, double rtol) {
  SolverSpec s = cand.spec;
  s.rtol = rtol;
  s.record_history = false;
  s.max_iters = kProbeIters;
  s.max_restarts = 0;
  return s;
}

/// Residual digits gained from a unit starting residual.
double digits_of(double relres) {
  return std::max(0.0, -std::log10(std::max(relres, 1e-300)));
}

}  // namespace

TuneResult tune(const PreparedProblem& p, const Constraints& c, double rtol,
                SolverWorkspace* ws) {
  TuneResult r;
  r.features = extract_features(p);
  r.ranked = shortlist(r.features, c);
  std::ostringstream log;
  log << "tune: fp=" << fingerprint_hex(r.features.fingerprint) << " "
      << features_summary(r.features) << "\n";

  std::string stored;
  if (tune_db().lookup(r.features.fingerprint, stored)) {
    try {
      r.chosen = SolverSpec::parse(stored);
      r.db_hit = true;
      log << "tune: db hit -> " << stored << "\n";
      r.log = log.str();
      return r;
    } catch (const SpecError& e) {
      // A hand-seeded entry can name a kind this build doesn't register;
      // degrade to a cold-cache tuning run rather than failing the solve.
      log << "tune: db entry '" << stored << "' rejected (" << e.what()
          << "); re-tuning\n";
    }
  }

  if (r.ranked.empty()) {
    // Unreachable with the built-in candidate table (the fgmres workhorse
    // always survives the gates), but never hand back an empty choice.
    r.chosen = SolverSpec::parse("fgmres64");
    r.log = log.str();
    return r;
  }
  for (const Candidate& cand : r.ranked)
    log << "tune: rank " << cand.spec.to_string() << " (" << cand.why << ")\n";

  const long budget = tune_probes_env();
  const bool can_probe = ws != nullptr && p.a != nullptr &&
                         p.b.size() == static_cast<std::size_t>(p.a->size()) &&
                         !p.b.empty();

  int best = 0;
  if (budget > 0 && can_probe) {
    // One shared workspace, engines built/destroyed sequentially: the
    // grow-only slabs are reused across probes (and again by the real
    // engine afterwards) exactly like the Session fallback ladder.
    //
    // The budget is spent on DISTINCT (kind, precond) configurations, not
    // ranked positions: the precision shades of one configuration sit
    // adjacent in the ranking and solve near-identically, so probing three
    // of them would tell the tuner almost nothing new while starving the
    // structurally different kinds further down the list.  Within a
    // configuration the cheapest (first-ranked) shade stands in for all.
    std::vector<double> x(p.b.size());
    std::map<std::string, std::shared_ptr<PrimaryPrecond>> ms;
    std::vector<std::string> probed_configs;
    const double target_digits = std::max(digits_of(rtol), 1.0);
    double best_score = 0.0;
    best = -1;
    for (std::size_t i = 0;
         i < r.ranked.size() && r.probes_run < static_cast<int>(budget); ++i) {
      const Candidate& cand = r.ranked[i];
      const std::string config = cand.spec.kind + "/" + cand.spec.precond.kind;
      if (std::find(probed_configs.begin(), probed_configs.end(), config) !=
          probed_configs.end())
        continue;
      const SolverSpec ps = probe_spec(cand, rtol);
      try {
        std::shared_ptr<PrimaryPrecond>& m = ms[ps.precond.to_string()];
        if (!m) m = registry().make_precond(ps.precond, p);
        const auto eng = registry().make_solver(ps, p, m, ws);
        std::fill(x.begin(), x.end(), 0.0);
        const SolveResult res = eng->solve(p.b, x);
        ++r.probes_run;
        probed_configs.push_back(config);
        // Modeled work, NOT wall-clock: M applications weighted by the
        // candidate's modeled accesses per application.  Deterministic for
        // a fixed thread count — a loaded machine tunes the same way.
        // A converged probe scores its actual work; a capped one scores the
        // work PROJECTED to the target (linear-rate extrapolation of the
        // digits it did gain), so partial progress competes on the same
        // axis instead of converged-beats-all.
        const double work =
            std::max(1.0, static_cast<double>(res.precond_invocations)) * cand.unit_cost;
        const double digits = digits_of(res.final_relres);
        const double score =
            res.converged ? work : work * target_digits / std::max(digits, 0.1);
        log << "tune: probe " << cand.spec.to_string() << " -> "
            << status_name(res.status) << " M-applies=" << res.precond_invocations
            << " relres=" << res.final_relres << " score=" << score << "\n";
        if (best < 0 || score < best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      } catch (const std::exception& e) {
        log << "tune: probe " << cand.spec.to_string() << " unbuildable ("
            << e.what() << ")\n";
        probed_configs.push_back(config);  // don't retry the config's shades
      }
    }
    if (best < 0) best = 0;  // every probe unbuildable: trust the model
    tune_db().note_probes(static_cast<std::uint64_t>(r.probes_run));
  } else {
    log << "tune: model-only (probes "
        << (budget <= 0 ? "disabled" : "unavailable") << ")\n";
  }

  r.chosen = r.ranked[static_cast<std::size_t>(best)].spec;
  log << "tune: chose " << r.chosen.to_string() << "\n";
  tune_db().store(r.features.fingerprint, r.chosen.to_string());
  r.log = log.str();
  return r;
}

namespace {

/// "<solver>: <status>[ (<site>)]" — the Session fallback ladder's attempt
/// label, reproduced for the tuner's own escalation trail.
std::string attempt_label(const SolveResult& r) {
  std::string s = r.solver + ": " + status_name(r.status);
  if (!r.failure.empty()) s += " (" + r.failure + ")";
  return s;
}

/// The meta-engine behind Session("auto"): tunes at construction, then
/// delegates.  A perf-DB entry (or a probe winner) is advisory — if the
/// chosen engine fails a real solve, the remaining ranked candidates are
/// tried in model order and the first success overwrites the DB entry.
class AutoEngine final : public SolverEngine {
 public:
  AutoEngine(const SolverSpec& spec, const PreparedProblem& p,
             std::shared_ptr<PrimaryPrecond> session_m, SolverWorkspace* ws)
      : p_(&p), ws_(ws), user_(spec), session_m_(std::move(session_m)) {
    Constraints c;
    if (spec.prec != Prec::FP64) c.pin_prec = spec.prec;
    if (spec.precond.kind != PrecondSpec{}.kind) c.pin_precond = spec.precond.kind;
    tuned_ = tune(p, c, spec.rtol, ws);
    adopt(tuned_.chosen);
  }

  [[nodiscard]] std::string name() const override {
    return "auto(" + engine_->name() + ")";
  }

  SolveResult solve(std::span<const double> b, std::span<double> x) override {
    SolveResult res = engine_->solve(b, x);
    if (res.converged || res.status == SolveStatus::kInvalidInput) return res;

    // Escalation: the tuned choice failed on this RHS.  Walk the remaining
    // ranked candidates (ascending model cost) with full caller budgets;
    // the first one that converges becomes the session's engine AND the
    // new DB entry for this matrix.
    std::vector<std::string> attempts = std::move(res.attempts);
    for (const Candidate& cand : tuned_.ranked) {
      if (cand.spec == chosen_) continue;
      attempts.push_back(attempt_label(res));
      adopt(cand.spec);
      std::fill(x.begin(), x.end(), 0.0);
      res = engine_->solve(b, x);
      if (res.converged) {
        tune_db().store(tuned_.features.fingerprint, cand.spec.to_string());
        break;
      }
      if (res.status == SolveStatus::kInvalidInput) break;
    }
    res.attempts = std::move(attempts);
    return res;
  }

  std::vector<SolveResult> solve_many(std::span<const double> B, std::span<double> X,
                                      int k) override {
    // Pure delegation: per-column recovery stays the Session fallback
    // ladder's job (";fallback=") — re-tuning mid-batch would tear down
    // the batched engine under its own wave scheduler.
    return engine_->solve_many(B, X, k);
  }

 private:
  /// Rebuild the inner engine for the minimal spec `minimal`, carrying the
  /// user's option tail (termination, batching, resilience,
  /// backend) over verbatim.  Sequential rebuild on the shared workspace.
  void adopt(const SolverSpec& minimal) {
    SolverSpec full = minimal;
    full.rtol = user_.rtol;
    full.max_iters = user_.max_iters;
    full.max_restarts = user_.max_restarts;
    full.record_history = user_.record_history;
    full.wave = user_.wave;
    full.compact = user_.compact;
    full.stagnate_window = user_.stagnate_window;
    full.fallback = user_.fallback;
    full.backend = user_.backend;
    if (user_.precond.storage.has_value() && !full.precond.storage.has_value())
      full.precond.storage = user_.precond.storage;
    full.precond.nblocks = user_.precond.nblocks;
    full.precond.omega = user_.precond.omega;
    full.precond.degree = user_.precond.degree;

    // Reuse the Session-minted M whenever the winner wants the same
    // factorization; otherwise mint (and cache) per precond description.
    std::shared_ptr<PrimaryPrecond> m;
    if (full.precond == user_.precond) {
      m = session_m_;
    } else {
      std::shared_ptr<PrimaryPrecond>& slot = minted_[full.precond.to_string()];
      if (!slot) slot = registry().make_precond(full.precond, *p_);
      m = slot;
    }
    engine_.reset();
    engine_ = registry().make_solver(full, *p_, std::move(m), ws_);
    chosen_ = minimal;
  }

  const PreparedProblem* p_;
  SolverWorkspace* ws_;
  SolverSpec user_;    ///< the caller's "auto" spec (options to carry over)
  SolverSpec chosen_;  ///< current minimal choice (escalation skips it)
  std::shared_ptr<PrimaryPrecond> session_m_;
  std::map<std::string, std::shared_ptr<PrimaryPrecond>> minted_;
  TuneResult tuned_;
  std::unique_ptr<SolverEngine> engine_;
};

}  // namespace

std::unique_ptr<SolverEngine> make_auto_engine(const SolverSpec& spec,
                                               const PreparedProblem& p,
                                               std::shared_ptr<PrimaryPrecond> m,
                                               SolverWorkspace* ws) {
  return std::make_unique<AutoEngine>(spec, p, std::move(m), ws);
}

}  // namespace nk::tune
