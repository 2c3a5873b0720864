// e2ebench — measurement program of the end-to-end benchmark (see run.py,
// which builds this program, starts the nkrylovd daemon, and turns the raw
// samples printed here into the benchmark's metrics).
//
//   e2ebench --workload NAME --seed N --seconds T --trace 0|1
//            --socket PATH [--trace-out FILE]
//
// Every workload has two phases, both driven only through nk::Session with
// spec strings and the nkrylovd client:
//
//   library  set up the workload's matrix several times (prepare_problem,
//            M factorization, forced per-precision matrix and M copies,
//            Session construction), run one untimed warm-up solve per
//            spec, then timed rounds of the five solver specs.  F3R runs
//            fp64, fp16, fp32, fp32, fp16, fp64 in every round, so both
//            ratio pairs are timed back to back in both orders.
//   service  cold phases that open every (matrix, spec) key on a running
//            nkrylovd, then a closed loop of four client connections on a
//            seeded schedule of reads and matrix churn.
//
// With --trace 1 the library phase runs each spec untraced and traced
// (through a PrimaryPrecond decorator timing every M apply), and adds direct
// SpMV and precision-conversion timings on the same matrix.  Every returned
// x is checked with the benchmark's own fp64 residual.
//
// Output: one JSON object of raw samples on the last stdout line.
#include <malloc.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/kernels.hpp"
#include "base/env.hpp"
#include "base/rng.hpp"
#include "core/problem.hpp"
#include "core/registry.hpp"
#include "core/service/client.hpp"
#include "core/session.hpp"
#include "core/spec.hpp"
#include "sparse/gen/suite_standins.hpp"
#include "trace.hpp"

namespace {

using e2e::Clock;
using e2e::seconds_since;

constexpr double kRtol = 1e-8;  // every spec's default termination target

struct Solver {
  const char* label;
  const char* spec;
};
constexpr Solver kSolvers[] = {
    {"f3r_fp64", "f3r@fp64"},       {"f3r_fp32", "f3r@fp32"},
    {"f3r_fp16", "f3r@fp16"},       {"krylov_fp64", "krylov@fp64"},
    {"krylov_fp16", "krylov@fp16"},
};
enum SolverIdx { kF3r64, kF3r32, kF3r16, kKry64, kKry16, kNumSolvers };

struct Workload {
  const char* name;
  const char* matrix;  ///< library-phase matrix (Table 2 stand-in name)
  int scale;
  int setup_reps;      ///< set-ups per run; setup_s is their median
  int min_rounds;      ///< timed library rounds at least (the traced run: one)
};
// f3r-membound: fp64 CSR ~333 MB, beyond the 300 MiB L3 — bytes cost time.
//               One round of ten solves already takes ~45 s.
// f3r-incache:  fp64 CSR ~22 MB, inside L3 — bytes are cheap.
constexpr Workload kWorkloads[] = {
    {"f3r-membound", "hpcg_6_6_5", 2, 3, 1},
    {"f3r-incache", "atmosmodd", 2, 9, 2},
};

// Service traffic: two served matrices and three specs, one right-hand side
// per request.  Every (matrix, spec) key is opened in the cold phases (F3R
// and "auto" tuning run there, on the request path).  The closed loop then
// uses the first kReadSpecs specs only — one request class, so its latency
// percentiles are steady from run to run; a mix of classes puts them on the
// thin boundary between the classes — and every kChurnEvery-th request is
// a PUT/SOLVE/FREE of a freshly perturbed matrix.  At least kServiceMin
// requests leave ten latency samples beyond the 90th percentile.
constexpr const char* kSvcMatrices[] = {"hpcg_5_5_5", "atmosmodd"};
constexpr const char* kSvcSpecs[] = {"krylov@fp16;wave=8", "f3r@fp16", "auto"};
constexpr int kReadSpecs = 1;
constexpr int kSvcClients = 4;
constexpr int kSvcK = 1;
constexpr int kChurnEvery = 7;
constexpr int kServiceMin = 100;
constexpr int kColdReps = 5;  ///< daemon cold phases per run, on new matrices each

// ------------------------------------------------------------------ output

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (std::isfinite(v)) os_ << std::setprecision(17) << v;
    else os_ << "null";
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) os_ << c;
    }
    os_ << '"';
    return *this;
  }
  Json& boolean(bool b) {
    sep();
    os_ << (b ? "true" : "false");
    return *this;
  }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (const double x : v) num(x);
    return close(']');
  }
  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ------------------------------------------------------------------ checks

/// The benchmark's own fp64 ‖b − A x‖ / ‖b‖, independent of the library's
/// kernels.
double true_relres(const nk::CsrMatrix<double>& a, const double* x, const double* b) {
  double rr = 0.0;
  double bb = 0.0;
  const std::ptrdiff_t n = a.nrows;
#pragma omp parallel for reduction(+ : rr, bb) schedule(static) if (n > 100000)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double s = b[i];
    for (nk::index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k)
      s -= a.vals[k] * x[a.col_idx[k]];
    rr += s * s;
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

/// Outcome tally: `wrong_converged` are answers the solver called converged
/// whose true residual is above rtol — the run must not pass with any.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_converged = 0;
  void add(bool converged, double relres) {
    ++attempted;
    const bool ok = converged && relres <= kRtol;
    if (!ok) ++failed;
    if (converged && !(relres <= kRtol)) ++wrong_converged;
  }
};

// ------------------------------------------------------------------ library

struct SetupSample {
  double prepare_s = 0, factor_s = 0, mat_copy_s = 0, m_copy_s = 0, session_s = 0;
  [[nodiscard]] double total() const {
    return prepare_s + factor_s + mat_copy_s + m_copy_s + session_s;
  }
};

/// One matrix's full solve stack: the prepared problem, its primary
/// preconditioner(s), and one Session per solver spec — in the traced run
/// each Session's M is wrapped in a TracedPrecond.
struct Stack {
  std::shared_ptr<nk::PreparedProblem> p;
  std::map<std::string, std::shared_ptr<nk::PrimaryPrecond>> m;  ///< by precond kind
  std::vector<std::shared_ptr<e2e::TracedPrecond>> traced_m;      ///< per session
  std::vector<nk::Session> sessions;
};

/// The factorization a spec's M needs: its precond spec without the storage
/// precision, which only selects a copy of the same factors.
nk::PrecondSpec factor_spec(const nk::SolverSpec& s) {
  nk::PrecondSpec ps = s.precond;
  ps.storage.reset();
  return ps;
}

Stack build_stack(const nk::gen::Problem& gen, std::uint64_t rhs_seed, SetupSample& t,
                  e2e::Tracer& tracer, bool decorate) {
  Stack st;
  const auto setup_span = tracer.scope("setup");
  nk::CsrMatrix<double> a = gen.a;  // prepare_problem consumes its matrix
  Clock::time_point t0 = Clock::now();
  {
    const auto s = tracer.scope("sparse.prepare_problem");
    st.p = std::make_shared<nk::PreparedProblem>(
        nk::prepare_problem(gen.spec.paper_name, std::move(a), gen.spec.symmetric,
                            gen.spec.alpha_ilu, gen.spec.alpha_ainv, rhs_seed));
  }
  t.prepare_s = seconds_since(t0);

  std::vector<nk::SolverSpec> specs;
  for (const Solver& s : kSolvers) specs.push_back(nk::SolverSpec::parse(s.spec));

  t0 = Clock::now();
  for (const nk::SolverSpec& s : specs) {
    const nk::PrecondSpec ps = factor_spec(s);
    const std::string key = ps.to_string();
    if (st.m.count(key) == 0) {
      const auto span = tracer.scope("precond.make_precond " + key);
      st.m[key] = nk::registry().make_precond(ps, *st.p);
    }
  }
  t.factor_s = seconds_since(t0);

  // The per-precision matrix copies F3R's inner levels read, forced here so
  // no timed solve pays for them.
  t0 = Clock::now();
  {
    const auto s = tracer.scope("sparse.make_operator fp32,fp16");
    (void)st.p->a->make_operator<float>(nk::Prec::FP32);
    (void)st.p->a->make_operator<float>(nk::Prec::FP16);
  }
  t.mat_copy_s = seconds_since(t0);

  t0 = Clock::now();
  for (auto& [key, m] : st.m) {
    const auto s = tracer.scope("precond.make_apply " + key);
    (void)m->make_apply<double>(nk::Prec::FP64);
    (void)m->make_apply<float>(nk::Prec::FP32);
    (void)m->make_apply<nk::half>(nk::Prec::FP16);
  }
  t.m_copy_s = seconds_since(t0);

  t0 = Clock::now();
  for (const nk::SolverSpec& s : specs) {
    const auto span = tracer.scope(std::string("core.Session ") + s.to_string());
    std::shared_ptr<nk::PrimaryPrecond> m = st.m.at(factor_spec(s).to_string());
    if (decorate) {
      st.traced_m.push_back(std::make_shared<e2e::TracedPrecond>(m, tracer));
      m = st.traced_m.back();
    }
    st.sessions.emplace_back(std::shared_ptr<const nk::PreparedProblem>(st.p), s, m);
  }
  t.session_s = seconds_since(t0);
  return st;
}

struct SolveSample {
  int solver = 0;
  bool traced = false;
  int round = 0;
  double seconds = 0;
  double m_seconds = -1;  ///< M time inside the solve (traced solves only)
  int iterations = 0;
  std::uint64_t applies = 0;
  double relres = 0;      ///< the benchmark's own residual
  std::string status;
};

/// Two solve times, measured back to back, whose ratio is a metric.
struct Pair {
  const char* ratio;
  double num = 0, den = 0;
};

struct LibraryResult {
  std::string matrix;
  bool symmetric = false;
  std::int64_t n = 0, nnz = 0;
  std::uint64_t value_bytes = 0;
  std::uint64_t working_set_bytes = 0;
  std::vector<SetupSample> setups;
  std::vector<SolveSample> solves;
  std::vector<Pair> pairs;  ///< back-to-back, from the untraced solves
  int rounds = 0;
  double timed_s = 0;
  std::map<std::string, double> spmv_ms, spmv_bytes, convert_ms;
};

/// Bytes the solves touch per pass over the stored data (computed, not
/// measured): every materialized matrix copy with its indices, plus the
/// fp64 vectors of x, b and one residual.
std::uint64_t working_set(const nk::PreparedProblem& p) {
  const auto& a = p.a->csr_fp64();
  const std::uint64_t n = static_cast<std::uint64_t>(a.nrows);
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  const std::uint64_t copies = 3;  // fp64, fp32, fp16 CSR copies, each with indices
  return p.a->value_bytes() + copies * (nnz + n + 1) * sizeof(nk::index_t) +
         3 * n * sizeof(double);
}

/// One solve from a zero initial guess, or from x as it is (`warm_start`).
SolveSample run_solve(Stack& st, int idx, bool traced, int round, std::vector<double>& x,
                      e2e::Tracer& tracer, Tally& tally, bool warm_start = false) {
  const std::vector<double>& b = st.p->b;
  e2e::TracedPrecond* tm = st.traced_m.empty() ? nullptr : st.traced_m[idx].get();
  if (!warm_start) std::fill(x.begin(), x.end(), 0.0);
  if (tm != nullptr) {
    tracer.enable(traced);
    tm->reset_time();
  }
  SolveSample out;
  nk::SolveResult r;
  {
    const auto span = tracer.scope(std::string("solve ") + kSolvers[idx].spec);
    const Clock::time_point t0 = Clock::now();
    r = st.sessions[static_cast<std::size_t>(idx)].solve(b, x);
    out.seconds = seconds_since(t0);
  }
  tracer.enable(tm != nullptr);
  out.solver = idx;
  out.traced = traced;
  out.round = round;
  if (traced) out.m_seconds = tm->apply_seconds();
  out.iterations = r.iterations;
  out.applies = r.precond_invocations;
  out.relres = true_relres(st.p->a->csr_fp64(), x.data(), b.data());
  out.status = nk::status_name(r.status);
  tally.add(r.converged, out.relres);
  return out;
}

/// Median wall time in ms of `fn` over at least 10 calls (more, up to 200,
/// while `budget_s` lasts), after two untimed calls.
template <class Fn>
double median_ms(Fn&& fn, double budget_s) {
  fn();
  fn();
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (ms.size() < 10 || (ms.size() < 200 && seconds_since(start) < budget_s)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(1e3 * seconds_since(t0));
  }
  std::nth_element(ms.begin(), ms.begin() + static_cast<std::ptrdiff_t>(ms.size() / 2),
                   ms.end());
  return ms[ms.size() / 2];
}

/// Operator::apply on the workload's own matrix stored at `mp`, vectors VT.
template <class MT, class VT>
void time_spmv(nk::MultiPrecMatrix& mat, nk::Prec mp, const std::string& name,
               LibraryResult& lr) {
  const auto& a = mat.csr_fp64();
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  auto op = mat.make_operator<VT>(mp);
  const auto xd = nk::random_vector<double>(n, 11, -1.0, 1.0);
  std::vector<VT> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<VT>(xd[i]);
  lr.spmv_ms[name] = median_ms([&] { op->apply(x, y); }, 0.3);
  lr.spmv_bytes[name] = static_cast<double>(a.nnz()) * (sizeof(MT) + sizeof(nk::index_t)) +
                        static_cast<double>(n + 1) * sizeof(nk::index_t) +
                        2.0 * static_cast<double>(n) * sizeof(VT);
}

/// The precision bridges' conversion kernel at the workload's n.
template <class Src, class Dst>
void time_convert(std::size_t n, const std::string& name, LibraryResult& lr) {
  const auto xd = nk::random_vector<double>(n, 13, -1.0, 1.0);
  std::vector<Src> x(n);
  std::vector<Dst> y(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<Src>(xd[i]);
  const nk::kern::Kernels kx(nk::Backend::kHost);
  lr.convert_ms[name] =
      median_ms([&] { kx.convert(std::span<const Src>(x), std::span<Dst>(y)); }, 0.2);
}

LibraryResult library_phase(const Workload& w, std::uint64_t seed, double seconds, bool trace,
                            e2e::Tracer& tracer, Tally& tally) {
  LibraryResult lr;
  std::fprintf(stderr, "e2ebench: generating %s scale %d\n", w.matrix, w.scale);
  const Clock::time_point t_gen = Clock::now();
  nk::gen::Problem gen = nk::gen::make_problem(w.matrix, w.scale);
  std::fprintf(stderr, "e2ebench: generated in %.2f s\n", seconds_since(t_gen));
  lr.matrix = gen.spec.paper_name;
  lr.symmetric = gen.spec.symmetric;

  // Set up several times; only the last stack is kept (and only one is
  // ever resident, so peak memory is one stack's).
  Stack st;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    st = Stack{};
    SetupSample t;
    st = build_stack(gen, seed, t, tracer, trace);
    lr.setups.push_back(t);
  }
  gen.a = nk::CsrMatrix<double>{};
  const nk::PreparedProblem& p = *st.p;
  lr.n = p.a->size();
  lr.nnz = p.a->csr_fp64().nnz();
  lr.value_bytes = p.a->value_bytes();
  lr.working_set_bytes = working_set(p);

  // One untimed warm-up solve per spec moves workspace acquisition (every
  // level's buffers, first-touched) out of the timed solves.  Only the
  // first (the cheapest full solve, fp64 Krylov) starts from zero; the
  // others start from its answer, which acquires the same buffers without
  // paying for a whole solve again.
  std::vector<double> x(p.b.size());
  Tally warm;  // warm-up answers are checked, but count only when wrong
  {
    const auto span = tracer.scope("warm-up");
    const int order[] = {kKry64, kKry16, kF3r64, kF3r32, kF3r16};
    for (const int i : order) {
      const SolveSample ws = run_solve(st, i, trace, -1, x, tracer, warm, i != kKry64);
      std::fprintf(stderr, "e2ebench: warm-up %s %.3f s, %d iterations\n", kSolvers[i].spec,
                   ws.seconds, ws.iterations);
    }
    std::fprintf(stderr, "e2ebench: set up and warmed in %.2f s\n", seconds_since(t_gen));
  }
  tally.wrong_converged += warm.wrong_converged;

  // Timed rounds.  F3R runs fp64, fp16, fp32, fp32, fp16, fp64, so every
  // spec is timed twice and each ratio pair (fp64/fp16, fp32/fp16) back to
  // back in both orders within every round — one round is already
  // balanced.  The Krylov pair runs A, B, B, A with A and B swapped from
  // round to round.  The traced run reports no ratios: it solves each spec
  // once per round, untraced and traced back to back, alternating which
  // goes first.
  const Clock::time_point start = Clock::now();
  int round = 0;
  const int min_rounds = trace ? 1 : w.min_rounds;
  for (; round < min_rounds || seconds_since(start) < seconds; ++round) {
    const bool even = round % 2 == 0;
    const int kry_first = even ? kKry64 : kKry16;
    const int kry_second = even ? kKry16 : kKry64;
    const std::vector<int> order =
        trace ? std::vector<int>{kF3r64, kF3r16, kF3r32, kry_first, kry_second}
              : std::vector<int>{kF3r64, kF3r16, kF3r32, kF3r32, kF3r16, kF3r64,
                                 kry_first, kry_second, kry_second, kry_first};
    std::vector<double> t(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const int i = order[k];
      const bool traced_first = trace && (k + static_cast<std::size_t>(round)) % 2 == 1;
      if (traced_first) lr.solves.push_back(run_solve(st, i, true, round, x, tracer, tally));
      const SolveSample plain = run_solve(st, i, false, round, x, tracer, tally);
      t[k] = plain.seconds;
      lr.solves.push_back(plain);
      if (trace && !traced_first)
        lr.solves.push_back(run_solve(st, i, true, round, x, tracer, tally));
    }
    if (!trace) {
      lr.pairs.push_back({"f3r_fp16_speedup", t[0], t[1]});
      lr.pairs.push_back({"f3r_fp16_speedup", t[5], t[4]});
      lr.pairs.push_back({"f3r_fp16_vs_fp32", t[2], t[1]});
      lr.pairs.push_back({"f3r_fp16_vs_fp32", t[3], t[4]});
    }
  }
  lr.rounds = round;
  lr.timed_s = seconds_since(start);

  if (trace) {
    const auto span = tracer.scope("direct sparse/core calls");
    nk::MultiPrecMatrix& mat = *st.p->a;
    time_spmv<double, double>(mat, nk::Prec::FP64, "fp64", lr);
    time_spmv<float, float>(mat, nk::Prec::FP32, "fp32", lr);
    time_spmv<nk::half, float>(mat, nk::Prec::FP16, "fp16_fp32", lr);
    time_spmv<nk::half, nk::half>(mat, nk::Prec::FP16, "fp16", lr);
    const std::size_t n = p.b.size();
    time_convert<double, float>(n, "fp64_fp32", lr);
    time_convert<float, nk::half>(n, "fp32_fp16", lr);
    time_convert<nk::half, float>(n, "fp16_fp32", lr);
    time_convert<float, double>(n, "fp32_fp64", lr);
  }
  return lr;
}

// ------------------------------------------------------------------ service

/// A matrix as a client holds it: the raw CSR it uploads, and the
/// symmetrically scaled copy the daemon solves with (prepare_problem's
/// scaling, redone here) for the answer check.
struct ClientMatrix {
  nk::CsrMatrix<double> raw;
  nk::CsrMatrix<double> scaled;
  bool symmetric = false;
};

ClientMatrix client_matrix(nk::CsrMatrix<double> raw, bool symmetric) {
  raw.sort_rows();
  ClientMatrix m;
  m.symmetric = symmetric;
  m.scaled = raw;
  const std::vector<double> d = raw.diagonal();
  std::vector<double> s(d.size(), 1.0);
  for (std::size_t i = 0; i < d.size(); ++i)
    if (std::abs(d[i]) > 0.0) s[i] = 1.0 / std::sqrt(std::abs(d[i]));
  for (nk::index_t i = 0; i < m.scaled.nrows; ++i)
    for (nk::index_t k = m.scaled.row_ptr[i]; k < m.scaled.row_ptr[i + 1]; ++k)
      m.scaled.vals[k] *= s[i] * s[m.scaled.col_idx[k]];
  m.raw = std::move(raw);
  return m;
}

/// Diagonal-only perturbation (keeps symmetry and definiteness): a new
/// matrix identity for the daemon, the same solver difficulty.
nk::CsrMatrix<double> perturbed(const nk::CsrMatrix<double>& a, std::uint64_t seed) {
  nk::CsrMatrix<double> out = a;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 0.01);
  for (nk::index_t i = 0; i < out.nrows; ++i)
    for (nk::index_t k = out.row_ptr[i]; k < out.row_ptr[i + 1]; ++k)
      if (out.col_idx[k] == i) out.vals[k] *= 1.0 + u(rng);
  return out;
}

struct Request {
  int matrix = 0;
  int spec = 0;
  bool churn = false;
  std::uint64_t rhs_seed = 0;
};

struct RequestSample {
  double ms = 0;      ///< whole request, PUT included for churn
  double put_ms = 0;  ///< churn PUT alone
  double done_s = 0;  ///< completion time since the closed loop started
  int spec = 0;
  bool churn = false;
  int cols = 0;
};

struct ServiceResult {
  std::vector<double> put_ms;
  std::vector<double> cold_s;        ///< per cold phase: PUTs + first request per key
  std::vector<double> tune_cold_ms;  ///< first "auto" request per matrix
  std::vector<RequestSample> requests;
  double timed_s = 0;
  /// Daemon STATS before the cold phases, before the closed loop, after it.
  std::map<std::string, std::uint64_t> stats_before, stats_warm, stats_after;
};

std::vector<double> rhs_block(std::size_t n, int k, std::uint64_t seed) {
  std::vector<double> B(n * static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    const auto col = nk::random_vector<double>(n, seed * 64 + static_cast<std::uint64_t>(c));
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::ptrdiff_t>(c) * n);
  }
  return B;
}

/// SOLVE and check every returned column; returns the latency in ms.
double solve_checked(nk::service::Client& c, std::uint64_t handle, const ClientMatrix& m,
                     const std::string& spec, std::uint64_t rhs_seed, Tally& tally) {
  constexpr int k = kSvcK;
  const std::size_t n = static_cast<std::size_t>(m.raw.nrows);
  const std::vector<double> B = rhs_block(n, k, rhs_seed);
  const Clock::time_point t0 = Clock::now();
  const auto reply = c.solve(handle, spec, B, k, static_cast<std::int64_t>(n));
  const double ms = 1e3 * seconds_since(t0);
  for (int col = 0; col < k; ++col) {
    const std::size_t off = static_cast<std::size_t>(col) * n;
    const bool conv = col < static_cast<int>(reply.columns.size()) &&
                      reply.columns[static_cast<std::size_t>(col)].converged();
    const double rel = reply.x.size() >= off + n
                           ? true_relres(m.scaled, reply.x.data() + off, B.data() + off)
                           : NAN;
    tally.add(conv, rel);
  }
  return ms;
}

ServiceResult service_phase(const std::string& socket, std::uint64_t seed, double seconds,
                            e2e::Tracer& tracer, Tally& tally) {
  ServiceResult sr;
  const auto phase = tracer.scope("service");
  std::vector<ClientMatrix> base;
  for (const char* name : kSvcMatrices) {
    nk::gen::Problem g = nk::gen::make_problem(name, 1);
    base.push_back(client_matrix(std::move(g.a), g.spec.symmetric));
  }

  // Cold phases on one connection, each on freshly perturbed matrices: PUT
  // each matrix, then the first request of every (matrix, spec) key pays
  // preparation, factorization, and (for "auto") tuning on the request
  // path.  The last phase's matrices are the ones the closed loop reads.
  std::vector<ClientMatrix> mats;
  std::vector<std::uint64_t> handles;
  {
    nk::service::Client c(socket);
    sr.stats_before = c.stats();
    for (int rep = 0; rep < kColdReps; ++rep) {
      const auto span = tracer.scope("service.cold");
      for (const std::uint64_t h : handles) c.free_handle(h);
      mats.clear();
      handles.clear();
      for (std::size_t mi = 0; mi < base.size(); ++mi)
        mats.push_back(client_matrix(perturbed(base[mi].raw, seed * 100 + rep * 10 + mi),
                                     base[mi].symmetric));
      const Clock::time_point t0 = Clock::now();
      for (std::size_t mi = 0; mi < mats.size(); ++mi) {
        const Clock::time_point tp = Clock::now();
        handles.push_back(c.put_matrix(mats[mi].raw, mats[mi].symmetric).handle);
        sr.put_ms.push_back(1e3 * seconds_since(tp));
      }
      for (std::size_t mi = 0; mi < mats.size(); ++mi)
        for (std::size_t si = 0; si < std::size(kSvcSpecs); ++si) {
          const double ms = solve_checked(c, handles[mi], mats[mi], kSvcSpecs[si],
                                          seed * 1000 + mi * 10 + si, tally);
          if (std::string(kSvcSpecs[si]) == "auto") sr.tune_cold_ms.push_back(ms);
        }
      sr.cold_s.push_back(seconds_since(t0));
    }
    sr.stats_warm = c.stats();
  }

  // Seeded schedule, consumed in order by whichever client is free.  It is
  // built from blocks of kChurnEvery requests: kChurnEvery - 1 reads that
  // cover every (matrix, read spec) key equally, in seeded order, then one
  // churn request.  Every seed thus asks for the same amount of each kind
  // of work; the seed decides only the order and the right-hand sides.
  std::mt19937_64 rng(seed);
  const int max_requests = 1 << 16;
  constexpr int keys = static_cast<int>(std::size(kSvcMatrices)) * kReadSpecs;
  std::vector<Request> schedule;
  std::vector<Request> block;
  for (int b = 0; static_cast<int>(schedule.size()) < max_requests; ++b) {
    block.clear();
    for (int i = 0; i < kChurnEvery - 1; ++i)
      block.push_back({i % keys / kReadSpecs, i % keys % kReadSpecs, false, rng()});
    std::shuffle(block.begin(), block.end(), rng);
    block.push_back({b % 2, b / 2 % kReadSpecs, true, rng()});
    schedule.insert(schedule.end(), block.begin(), block.end());
  }
  schedule.resize(static_cast<std::size_t>(max_requests));

  std::atomic<int> next{0};
  std::vector<std::vector<RequestSample>> per_client(kSvcClients);
  std::vector<Tally> tallies(kSvcClients);
  std::vector<std::exception_ptr> errors(kSvcClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kSvcClients; ++ci)
      clients.emplace_back([&, ci] {
#ifdef _OPENMP
        // Client-side work (perturbing and scaling churn matrices) stays on
        // this thread: an OpenMP team per client would compete with the
        // daemon for the cores.
        omp_set_num_threads(1);
#endif
        try {
          nk::service::Client c(socket);
          for (;;) {
            const int i = next.fetch_add(1);
            if (i >= max_requests) break;
            if (i >= kServiceMin && seconds_since(start) >= seconds) break;
            const Request& r = schedule[static_cast<std::size_t>(i)];
            const auto span = tracer.scope("request", ci + 1);
            RequestSample s;
            s.spec = r.spec;
            s.churn = r.churn;
            s.cols = kSvcK;
            if (r.churn) {
              const ClientMatrix m =
                  client_matrix(perturbed(mats[static_cast<std::size_t>(r.matrix)].raw,
                                          r.rhs_seed),
                                mats[static_cast<std::size_t>(r.matrix)].symmetric);
              const Clock::time_point t0 = Clock::now();
              const std::uint64_t h = c.put_matrix(m.raw, m.symmetric).handle;
              s.put_ms = 1e3 * seconds_since(t0);
              s.ms = s.put_ms +
                     solve_checked(c, h, m, kSvcSpecs[r.spec], r.rhs_seed, tallies[ci]);
              c.free_handle(h);
            } else {
              s.ms = solve_checked(c, handles[static_cast<std::size_t>(r.matrix)],
                                   mats[static_cast<std::size_t>(r.matrix)],
                                   kSvcSpecs[r.spec], r.rhs_seed, tallies[ci]);
            }
            s.done_s = seconds_since(start);
            per_client[static_cast<std::size_t>(ci)].push_back(s);
          }
        } catch (...) {
          errors[static_cast<std::size_t>(ci)] = std::current_exception();
        }
      });
    for (std::thread& t : clients) t.join();
  }
  sr.timed_s = seconds_since(start);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (int ci = 0; ci < kSvcClients; ++ci) {
    const auto& v = per_client[static_cast<std::size_t>(ci)];
    sr.requests.insert(sr.requests.end(), v.begin(), v.end());
    tally.attempted += tallies[static_cast<std::size_t>(ci)].attempted;
    tally.failed += tallies[static_cast<std::size_t>(ci)].failed;
    tally.wrong_converged += tallies[static_cast<std::size_t>(ci)].wrong_converged;
  }
  nk::service::Client c(socket);
  sr.stats_after = c.stats();
  return sr;
}

// ------------------------------------------------------------------ main

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds T --trace 0|1 "
               "--socket PATH [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's malloc thresholds at the values its dynamic policy moves
  // them to once large blocks have been freed (32 MiB mmap, 64 MiB trim).
  // Left dynamic, the first set-ups of a run fault fresh pages and later
  // ones reuse freed heap, so set-up repetitions would drift between two
  // regimes instead of repeating one.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  std::string workload, socket, trace_out;
  long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") workload = v;
    else if (k == "--socket") socket = v;
    else if (k == "--trace-out") trace_out = v;
    else if (k == "--seed") seed = std::strtol(v, &end, 10);
    else if (k == "--seconds") seconds = std::strtod(v, &end);
    else if (k == "--trace") trace = static_cast<int>(std::strtol(v, &end, 10));
    else return usage();
    if (end != nullptr && *end != '\0') return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (workload == cand.name) w = &cand;
  if (w == nullptr || seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1) ||
      socket.empty() || argc % 2 == 0)
    return usage();

  e2e::Tracer tracer(trace == 1);
  Tally tally;
  LibraryResult lr;
  ServiceResult sr;
  try {
    const auto root = tracer.scope(std::string("workload ") + w->name);
    lr = library_phase(*w, static_cast<std::uint64_t>(seed), seconds, trace == 1, tracer,
                       tally);
    std::fprintf(stderr, "e2ebench: library phase done (%d rounds)\n", lr.rounds);
    sr = service_phase(socket, static_cast<std::uint64_t>(seed), seconds, tracer, tally);
    std::fprintf(stderr, "e2ebench: service phase done (%zu requests)\n", sr.requests.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: fatal: %s\n", e.what());
    return 1;
  }
  Json regime;
  regime.open('{');
  regime.key("workload").str(w->name).key("seed").num(static_cast<double>(seed));
  regime.key("matrix").str(lr.matrix).key("n").num(static_cast<double>(lr.n));
  regime.key("nnz").num(static_cast<double>(lr.nnz));
  regime.key("threads").num(nk::num_threads()).key("env").str(nk::env_summary()).close('}');
  if (trace == 1 && !trace_out.empty() && !tracer.write_chrome_json(trace_out, regime.text())) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  Json j;
  j.open('{');
  j.key("workload").str(w->name).key("seed").num(static_cast<double>(seed));
  j.key("threads").num(nk::num_threads()).key("env").str(nk::env_summary());
  j.key("rtol").num(kRtol);
  j.key("specs").open('{');
  for (const Solver& s : kSolvers) j.key(s.label).str(s.spec);
  j.close('}');
  j.key("library").open('{');
  j.key("matrix").str(lr.matrix).key("scale").num(w->scale).key("symmetric").boolean(lr.symmetric);
  j.key("n").num(static_cast<double>(lr.n)).key("nnz").num(static_cast<double>(lr.nnz));
  j.key("value_bytes").num(static_cast<double>(lr.value_bytes));
  j.key("working_set_bytes").num(static_cast<double>(lr.working_set_bytes));
  j.key("rounds").num(lr.rounds).key("timed_s").num(lr.timed_s);
  j.key("setups").open('[');
  for (const SetupSample& t : lr.setups) {
    j.open('{').key("total_s").num(t.total()).key("prepare_s").num(t.prepare_s);
    j.key("factor_s").num(t.factor_s).key("mat_copy_s").num(t.mat_copy_s);
    j.key("m_copy_s").num(t.m_copy_s).key("session_s").num(t.session_s).close('}');
  }
  j.close(']');
  j.key("solves").open('[');
  for (const SolveSample& s : lr.solves) {
    j.open('{').key("solver").str(kSolvers[s.solver].label).key("traced").boolean(s.traced);
    j.key("round").num(s.round).key("seconds").num(s.seconds);
    if (s.m_seconds >= 0) j.key("m_seconds").num(s.m_seconds);
    j.key("iterations").num(s.iterations).key("applies").num(static_cast<double>(s.applies));
    j.key("relres").num(s.relres).key("status").str(s.status).close('}');
  }
  j.close(']');
  j.key("pairs").open('[');
  for (const Pair& p : lr.pairs)
    j.open('{').key("ratio").str(p.ratio).key("num").num(p.num).key("den").num(p.den).close('}');
  j.close(']');
  const auto dump = [&](const char* key, const std::map<std::string, double>& m) {
    j.key(key).open('{');
    for (const auto& [k, v] : m) j.key(k).num(v);
    j.close('}');
  };
  dump("spmv_ms", lr.spmv_ms);
  dump("spmv_bytes", lr.spmv_bytes);
  dump("convert_ms", lr.convert_ms);
  j.close('}');
  j.key("service").open('{');
  j.key("clients").num(kSvcClients).key("k").num(kSvcK).key("churn_every").num(kChurnEvery);
  j.key("specs").open('[');
  for (const char* spec : kSvcSpecs) j.str(spec);
  j.close(']');
  j.key("put_ms").nums(sr.put_ms).key("cold_s").nums(sr.cold_s);
  j.key("tune_cold_ms").nums(sr.tune_cold_ms).key("timed_s").num(sr.timed_s);
  j.key("requests").open('[');
  for (const RequestSample& r : sr.requests)
    j.open('{').key("ms").num(r.ms).key("spec").str(kSvcSpecs[r.spec])
        .key("churn").boolean(r.churn).key("put_ms").num(r.put_ms)
        .key("done_s").num(r.done_s).key("cols").num(r.cols).close('}');
  j.close(']');
  const auto dump_u = [&](const char* key, const std::map<std::string, std::uint64_t>& m) {
    j.key(key).open('{');
    for (const auto& [k, v] : m) j.key(k).num(static_cast<double>(v));
    j.close('}');
  };
  dump_u("stats_before", sr.stats_before);
  dump_u("stats_warm", sr.stats_warm);
  dump_u("stats_after", sr.stats_after);
  j.close('}');
  j.key("spans").num(static_cast<double>(tracer.size()));
  j.key("attempted").num(static_cast<double>(tally.attempted));
  j.key("failed").num(static_cast<double>(tally.failed));
  j.key("wrong_converged").num(static_cast<double>(tally.wrong_converged));
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
