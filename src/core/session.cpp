#include "core/session.hpp"

#include <algorithm>
#include <iterator>

#include "base/backend.hpp"
#include "base/blas_block.hpp"
#include "base/env.hpp"

namespace nk {

namespace {

/// Resolution order: spec ";backend=" > NKRYLOV_BACKEND > host.  An
/// unknown environment value is never a silent fallback: it is recorded in
/// *err and every solve on the Session fails fast with kInvalidInput
/// ("backend: ...").  The default-when-unset sentinel is "host" so a SET
/// but empty NKRYLOV_BACKEND is rejected like any other unknown name.
Backend resolve_session_backend(const std::optional<Backend>& from_spec,
                                std::string* err) {
  if (from_spec.has_value()) return *from_spec;
  const std::string v = env_str("NKRYLOV_BACKEND", backend_name(Backend::kHost));
  const auto be = parse_backend(v);
  if (be.has_value()) return *be;
  *err = "backend: unknown NKRYLOV_BACKEND value '" + v +
         "' (known: " + std::string(backend_names()) + ")";
  return Backend::kHost;
}

/// The resolved backend is a workspace property: every engine, handle, and
/// operator minted for this Session reads it from here (first-touch policy
/// included).
std::unique_ptr<SolverWorkspace> make_session_workspace(const SolverSpec& spec,
                                                        std::string* backend_err) {
  auto ws = std::make_unique<SolverWorkspace>();
  ws->set_backend(resolve_session_backend(spec.backend, backend_err));
  return ws;
}

/// The `;fallback=` ladder retries the causes a precision escalation can
/// plausibly cure.  kInvalidInput / kStagnated / kMaxIters are not among
/// them: bad inputs stay bad and budget exhaustion is policy, not damage.
bool retryable(const SolveResult& r) {
  return r.status == SolveStatus::kNonFinite || r.status == SolveStatus::kBreakdown;
}

std::string attempt_label(const SolveResult& r) {
  std::string s = r.solver + ": " + status_name(r.status);
  if (!r.failure.empty()) s += " (" + r.failure + ")";
  return s;
}

}  // namespace

Session::Session(std::shared_ptr<const PreparedProblem> p, const SolverSpec& spec)
    : p_(std::move(p)),
      spec_(spec),
      m_(registry().make_precond(spec.precond, *p_)),
      ws_(make_session_workspace(spec, &backend_err_)),
      engine_(registry().make_solver(spec_, *p_, m_, ws_.get())) {}

Session::Session(std::shared_ptr<const PreparedProblem> p, const SolverSpec& spec,
                 std::shared_ptr<PrimaryPrecond> m)
    : p_(std::move(p)),
      spec_(spec),
      m_(std::move(m)),
      ws_(make_session_workspace(spec, &backend_err_)),
      engine_(registry().make_solver(spec_, *p_, m_, ws_.get())) {}

Session::Session(std::shared_ptr<const PreparedProblem> p, NestedConfig cfg,
                 const Termination& term, std::shared_ptr<PrimaryPrecond> m)
    : p_(std::move(p)), m_(std::move(m)), ws_(std::make_unique<SolverWorkspace>()) {
  spec_.kind = cfg.name;  // reporting only; not a registered kind
  // No spec to carry ";backend=" here, so the environment decides.
  ws_->set_backend(resolve_session_backend(std::nullopt, &backend_err_));
  engine_ = detail::make_nested_engine(*p_, m_, std::move(cfg), term, ws_.get());
}

Session::Session(std::shared_ptr<const PreparedProblem> p, const std::string& spec_text)
    : Session(std::move(p), SolverSpec::parse(spec_text)) {}

Session::Session(PreparedProblem p, const SolverSpec& spec)
    : Session(std::make_shared<const PreparedProblem>(std::move(p)), spec) {}

Session::Session(PreparedProblem p, const std::string& spec_text)
    : Session(std::make_shared<const PreparedProblem>(std::move(p)),
              SolverSpec::parse(spec_text)) {}

Session::Session(PreparedProblem p, const SolverSpec& spec,
                 std::shared_ptr<PrimaryPrecond> m)
    : Session(std::make_shared<const PreparedProblem>(std::move(p)), spec, std::move(m)) {}

Session::Session(PreparedProblem p, NestedConfig cfg, const Termination& term,
                 std::shared_ptr<PrimaryPrecond> m)
    : Session(std::make_shared<const PreparedProblem>(std::move(p)), std::move(cfg), term,
              std::move(m)) {}

SolveResult Session::invalid_input(std::string why) const {
  SolveResult r;
  r.solver = engine_ != nullptr ? engine_->name() : spec_.kind;
  r.fail(SolveStatus::kInvalidInput, std::move(why));
  return r;
}

SolveResult Session::solve() {
  std::vector<double> x(p_->b.size(), 0.0);
  return solve(std::span<const double>(p_->b), std::span<double>(x));
}

SolveResult Session::solve(std::span<const double> b, std::span<double> x) {
  const SolveSlot slot(*in_solve_);
  if (!slot.claimed) return invalid_input("concurrent-use");
  return solve_impl(b, x);
}

SolveResult Session::solve_impl(std::span<const double> b, std::span<double> x) {
  if (!backend_err_.empty()) return invalid_input(backend_err_);
  const std::size_t n = p_->a ? static_cast<std::size_t>(p_->a->size()) : 0;
  if (n == 0) return invalid_input("empty-system");
  if (b.size() != n || x.size() != n) return invalid_input("size-mismatch");
  if (blas::has_nonfinite(std::span<const double>(b))) return invalid_input("non-finite-b");

  SolveResult res = engine_->solve(b, x);
  if (spec_.fallback.empty() || !retryable(res)) return res;

  // Precision-escalation ladder: retry the same prepared problem with the
  // precision axis raised to each listed level in turn.  M is re-minted at
  // the escalated precision (storage override cleared), and each attempt's
  // engine is built SEQUENTIALLY on the shared workspace — the previous
  // engine is destroyed first, so the grow-only slabs are simply reused
  // under the same keys (workspace.hpp's sequential-rebuild pattern).
  std::vector<std::string> attempts;
  for (Prec pr : spec_.fallback) {
    attempts.push_back(attempt_label(res));
    SolverSpec s = spec_;
    s.prec = pr;
    s.precond.storage.reset();
    s.fallback.clear();
    engine_.reset();
    engine_ = registry().make_solver(s, *p_, m_, ws_.get());
    // A poisoned iterate is not a usable initial guess.
    std::fill(x.begin(), x.end(), 0.0);
    res = engine_->solve(b, x);
    if (!retryable(res)) break;
  }
  // Restore the spec's own engine so later solves on this Session behave
  // as if no fallback had fired (same sequential slab reuse).
  engine_.reset();
  engine_ = registry().make_solver(spec_, *p_, m_, ws_.get());
  res.attempts = std::move(attempts);
  return res;
}

std::vector<SolveResult> Session::solve_many(std::span<const double> B,
                                             std::span<double> X, int k) {
  if (k <= 0) return {};
  const SolveSlot slot(*in_solve_);
  if (!slot.claimed)
    return std::vector<SolveResult>(static_cast<std::size_t>(k),
                                    invalid_input("concurrent-use"));
  if (!backend_err_.empty())
    return std::vector<SolveResult>(static_cast<std::size_t>(k),
                                    invalid_input(backend_err_));
  const std::size_t n = p_->a ? static_cast<std::size_t>(p_->a->size()) : 0;
  const std::size_t need = static_cast<std::size_t>(k) * n;
  if (n == 0) return std::vector<SolveResult>(static_cast<std::size_t>(k),
                                              invalid_input("empty-system"));
  if (B.size() < need || X.size() < need)
    return std::vector<SolveResult>(static_cast<std::size_t>(k),
                                    invalid_input("size-mismatch"));

  std::vector<SolveResult> res = engine_->solve_many(B, X, k);
  if (!spec_.fallback.empty()) {
    // Per-column recovery: a poisoned column was retired by the batched
    // scheduler without freezing its wave; re-solve just that column
    // through the scalar ladder (validation + escalation included).
    for (int c = 0; c < k; ++c) {
      if (!retryable(res[c])) continue;
      std::span<double> xc = X.subspan(static_cast<std::size_t>(c) * n, n);
      std::fill(xc.begin(), xc.end(), 0.0);
      // solve_impl, not solve(): the batch already holds the solve slot.
      res[c] = solve_impl(B.subspan(static_cast<std::size_t>(c) * n, n), xc);
    }
  }
  return res;
}

std::vector<double> Session::make_rhs_batch(int k, std::uint64_t seed0) const {
  return batch_rhs(*p_, k, seed0);
}

std::string Session::solver_name() const { return engine_->name(); }

}  // namespace nk
