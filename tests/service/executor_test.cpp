// SolveExecutor: cross-request batching, per-client bit-identity under
// concurrency, and fault isolation inside shared waves.
//
// Bit-identity note: these tests use cg, whose batched solve_many path is
// pinned per-column bit-identical to a solo solve() (the conformance /
// BatchedCompaction contracts).  The nested f3r engines share adaptive
// state across a wave and are NOT per-column order-independent — a daemon
// client wanting bit-reproducibility picks a spec with that contract,
// which is exactly what we document in the README.
//
// This file also runs under the CI TSan job (executor_test_forced_team
// matches its regex) — the N-clients-x-M-solves test is the
// data-race probe for the whole service stack.
#include "core/service/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "support/problems.hpp"

namespace nk::service {
namespace {

std::shared_ptr<const PreparedProblem> shared_problem() {
  return std::make_shared<const PreparedProblem>(prepare_standin("hpcg_4_4_4", 1));
}

std::vector<std::vector<double>> seeded_columns(const PreparedProblem& p, int k,
                                                std::uint64_t seed0) {
  const std::vector<double> flat = batch_rhs(p, k, seed0);
  const std::size_t n = p.b.size();
  std::vector<std::vector<double>> cols(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    cols[static_cast<std::size_t>(c)].assign(flat.begin() + static_cast<std::size_t>(c) * n,
                                             flat.begin() + static_cast<std::size_t>(c + 1) * n);
  return cols;
}

TEST(Executor, SolvesSubmittedColumnsAndCounts) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;nblocks=8");

  ExecutorConfig cfg;
  cfg.threads = 2;
  SolveExecutor ex(cfg);
  auto futures = ex.submit(h, p, spec, seeded_columns(*p, 3, 11), 1);
  ASSERT_EQ(futures.size(), 3u);
  for (auto& f : futures) {
    const ColumnOutcome out = f.get();
    EXPECT_TRUE(out.result.converged) << summarize(out.result);
    EXPECT_EQ(out.x.size(), p->b.size());
  }
  const SolveExecutor::Stats s = ex.stats();
  EXPECT_EQ(s.columns, 3u);
  EXPECT_GE(s.widest_batch, 1);
}

TEST(Executor, MergesColumnsFromDifferentRequestsIntoOneWave) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;wave=8;nblocks=8");

  // Paused start: all four requests are queued before any worker wakes,
  // so they MUST meet in shared batches once resumed.
  ExecutorConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 16;
  cfg.start_paused = true;
  SolveExecutor ex(cfg);
  std::vector<std::future<ColumnOutcome>> all;
  for (std::uint64_t req = 1; req <= 4; ++req)
    for (auto& f : ex.submit(h, p, spec, seeded_columns(*p, 2, 100 * req), req))
      all.push_back(std::move(f));
  ex.resume();
  for (auto& f : all) EXPECT_TRUE(f.get().result.converged);

  const SolveExecutor::Stats s = ex.stats();
  EXPECT_EQ(s.columns, 8u);
  EXPECT_GE(s.merged_batches, 1u) << "cross-request merging never happened";
  EXPECT_GT(s.widest_batch, 2) << "batches never grew past a single request";
}

TEST(Executor, ConcurrentClientsGetBitIdenticalResultsVsSequential) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;nblocks=8");
  const std::size_t n = p->b.size();

  constexpr int kClients = 6;
  constexpr int kSolvesPerClient = 3;

  // Sequential reference: each client's columns solved alone, one at a
  // time, through a dedicated executor.
  std::vector<std::vector<double>> reference;
  {
    ExecutorConfig cfg;
    cfg.threads = 1;
    cfg.max_batch = 1;  // no batching at all in the reference
    SolveExecutor ref(cfg);
    for (int client = 0; client < kClients; ++client) {
      for (int sol = 0; sol < kSolvesPerClient; ++sol) {
        auto cols = seeded_columns(*p, 1, 1000 * client + sol);
        auto futs = ref.submit(h, p, spec, std::move(cols), 1);
        ColumnOutcome out = futs[0].get();
        EXPECT_TRUE(out.result.converged);
        reference.push_back(std::move(out.x));
      }
    }
  }

  // Concurrent run: all clients submit from their own threads into one
  // busy executor; columns from different clients share waves.
  ExecutorConfig cfg;
  cfg.threads = 3;
  cfg.max_batch = 8;
  SolveExecutor ex(cfg);
  std::vector<std::vector<double>> live(static_cast<std::size_t>(kClients * kSolvesPerClient));
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      for (int sol = 0; sol < kSolvesPerClient; ++sol) {
        auto cols = seeded_columns(*p, 1, 1000 * client + sol);
        auto futs = ex.submit(h, p, spec, std::move(cols),
                              static_cast<std::uint64_t>(client * kSolvesPerClient + sol + 1));
        ColumnOutcome out = futs[0].get();
        if (!out.result.converged) failures.fetch_add(1);
        live[static_cast<std::size_t>(client * kSolvesPerClient + sol)] = std::move(out.x);
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // cg's batched path is per-column bit-identical to solo solves, so the
  // daemon's cross-client batching must be invisible in the bits.
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(live[i].size(), n);
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(live[i][j], reference[i][j])
          << "solution bits diverged at solve " << i << ", entry " << j;
  }
}

TEST(Executor, PoisonedColumnIsRetiredWithoutTakingDownItsWave) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;wave=4;nblocks=8");
  const std::size_t n = p->b.size();

  ExecutorConfig cfg;
  cfg.threads = 1;  // force all four columns into one shared wave
  cfg.max_batch = 8;
  SolveExecutor ex(cfg);

  auto cols = seeded_columns(*p, 4, 21);
  cols[2][n / 2] = std::nan("");  // one client's poisoned request
  auto futures = ex.submit(h, p, spec, std::move(cols), 1);

  const ColumnOutcome poisoned = futures[2].get();
  EXPECT_FALSE(poisoned.result.converged);
  EXPECT_TRUE(poisoned.result.status == SolveStatus::kNonFinite ||
              poisoned.result.status == SolveStatus::kInvalidInput)
      << status_name(poisoned.result.status);

  // Its wave-mates converge to the SAME bits as a clean solo run.
  SolveExecutor solo(ExecutorConfig{1, 1, 4});
  for (const int c : {0, 1, 3}) {
    const ColumnOutcome out = futures[static_cast<std::size_t>(c)].get();
    ASSERT_TRUE(out.result.converged) << "wave-mate " << c << ": " << summarize(out.result);
    auto ref_cols = seeded_columns(*p, 4, 21);
    auto ref =
        solo.submit(h, p, spec, {std::move(ref_cols[static_cast<std::size_t>(c)])}, 1)[0].get();
    ASSERT_TRUE(ref.result.converged);
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(out.x[j], ref.x[j]) << "column " << c << " diverged at entry " << j;
  }
}

TEST(Executor, SessionConstructionFailureFailsColumnsStructurally) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  // A kind the registry does not know: Session construction throws inside
  // the worker, and every queued column must come back kInvalidInput with
  // a failure site — never a hung future or a dead worker.
  SolverSpec spec;
  spec.kind = "no-such-solver-kind";
  SolveExecutor ex(ExecutorConfig{1, 4, 4});
  auto futures = ex.submit(h, p, spec, seeded_columns(*p, 2, 5), 1);
  for (auto& f : futures) {
    const ColumnOutcome out = f.get();
    EXPECT_FALSE(out.result.converged);
    EXPECT_EQ(out.result.status, SolveStatus::kInvalidInput);
    EXPECT_NE(out.result.failure.find("session:"), std::string::npos);
  }
}

TEST(Executor, DrainsQueuedColumnsOnDestruction) {
  auto p = shared_problem();
  const std::uint64_t h = standin_fingerprint("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/jacobi");
  std::vector<std::future<ColumnOutcome>> futures;
  {
    SolveExecutor ex(ExecutorConfig{1, 2, 4});
    futures = ex.submit(h, p, spec, seeded_columns(*p, 5, 31), 1);
    // Destructor runs with most columns still queued.
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().result.converged) << "column lost in shutdown";
}

}  // namespace
}  // namespace nk::service
