// The daemon's content-addressed caches: fingerprint sensitivity, problem
// hit/miss accounting (the "repeat clients pay zero setup" proof), and
// Session LRU eviction that never touches an in-flight lease.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/fingerprint.hpp"
#include "core/service/session_cache.hpp"
#include "support/problems.hpp"

namespace nk::service {
namespace {

TEST(Fingerprint, SeesEveryComponentOfTheMatrix) {
  const CsrMatrix<double> a = test::scaled_laplace2d(8, 8);
  const std::uint64_t base = matrix_fingerprint(a, true);
  EXPECT_EQ(matrix_fingerprint(a, true), base) << "must be deterministic";
  EXPECT_NE(matrix_fingerprint(a, false), base) << "symmetry claim is part of the problem";

  CsrMatrix<double> v = a;
  v.vals[3] += 1e-13;
  EXPECT_NE(matrix_fingerprint(v, true), base) << "value changes must re-key";

  const CsrMatrix<double> other = test::scaled_laplace2d(8, 9);
  EXPECT_NE(matrix_fingerprint(other, true), base) << "shape changes must re-key";
}

TEST(Fingerprint, StandinsAreKeyedByGeneratorCoordinates) {
  const std::uint64_t a = standin_fingerprint("hpcg_4_4_4", 1);
  EXPECT_EQ(standin_fingerprint("hpcg_4_4_4", 1), a);
  EXPECT_NE(standin_fingerprint("hpcg_4_4_4", 2), a);
  EXPECT_NE(standin_fingerprint("ecology2", 1), a);
}

TEST(ProblemTable, RepeatPutIsAHitAndSharesThePreparedProblem) {
  ProblemTable table;
  const CsrMatrix<double> a = test::scaled_laplace2d(8, 8);

  const ProblemTable::PutOutcome first = table.put_matrix(a, true);
  EXPECT_FALSE(first.cached);
  const ProblemTable::PutOutcome second = table.put_matrix(a, true);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.handle, first.handle);
  EXPECT_EQ(second.problem.get(), first.problem.get()) << "one PreparedProblem, shared";

  const ProblemTable::Stats s = table.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.resident, 1u);
}

TEST(ProblemTable, SymmetryClaimSplitsTheKey) {
  ProblemTable table;
  const CsrMatrix<double> a = test::scaled_laplace2d(8, 8);
  const auto spd = table.put_matrix(a, true);
  const auto gen = table.put_matrix(a, false);
  EXPECT_NE(spd.handle, gen.handle);
  EXPECT_FALSE(gen.cached);
}

TEST(ProblemTable, EraseDropsTheHandleButNotInFlightUsers) {
  ProblemTable table;
  const auto out = table.put_standin("hpcg_4_4_4", 1);
  const std::shared_ptr<const PreparedProblem> held = table.find(out.handle);
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(table.erase(out.handle));
  EXPECT_FALSE(table.erase(out.handle)) << "second erase: handle already gone";
  EXPECT_EQ(table.find(out.handle), nullptr);
  // The shared_ptr we took before the erase still owns a live problem.
  EXPECT_EQ(held->b.size(), static_cast<std::size_t>(held->a->size()));
  // Re-PUT after erase is a miss again: preparation is re-paid.
  EXPECT_FALSE(table.put_standin("hpcg_4_4_4", 1).cached);
}

TEST(SessionCache, RepeatLeaseSkipsSetup) {
  ProblemTable table;
  const auto out = table.put_standin("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;nblocks=8");

  SessionCache cache(4);
  {
    SessionCache::Lease lease = cache.lease(out.handle, out.problem, spec);
    EXPECT_TRUE(lease.built());
    const SolveResult r = lease.session().solve();
    EXPECT_TRUE(r.converged);
  }
  {
    SessionCache::Lease lease = cache.lease(out.handle, out.problem, spec);
    EXPECT_FALSE(lease.built()) << "same (matrix, spec): factorization must be reused";
  }
  // A different spec on the same matrix is a different Session.
  EXPECT_TRUE(cache.lease(out.handle, out.problem, SolverSpec::parse("cg/jacobi")).built());

  const SessionCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.resident, 2u);
}

TEST(SessionCache, EvictsIdleLruBeyondCapacityButNeverInFlight) {
  ProblemTable table;
  const auto out = table.put_standin("hpcg_4_4_4", 1);
  SessionCache cache(1);

  const SolverSpec held_spec = SolverSpec::parse("cg/jacobi");
  {
    SessionCache::Lease held = cache.lease(out.handle, out.problem, held_spec);

    // Two more specs against capacity 1: the IDLE entries churn, the held
    // lease must survive untouched.
    (void)cache.lease(out.handle, out.problem, SolverSpec::parse("cg/bj;nblocks=8"));
    (void)cache.lease(out.handle, out.problem, SolverSpec::parse("bicgstab/jacobi"));

    const SessionCache::Stats s = cache.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_TRUE(held.session().solve().converged) << "in-flight lease still valid";
  }
  // The held entry was never evicted while in flight, so re-leasing it
  // after release is a hit.  (Re-leasing a key while STILL holding its
  // lease would self-deadlock — that is the documented single-lessee
  // contract, same as Session's concurrent-use guard.)
  const std::uint64_t hits_before = cache.stats().hits;
  { SessionCache::Lease again = cache.lease(out.handle, out.problem, held_spec); }
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
}

TEST(SessionCache, ConcurrentLeasesOfOneKeySerializeAndBuildOnce) {
  ProblemTable table;
  const auto out = table.put_standin("hpcg_4_4_4", 1);
  const SolverSpec spec = SolverSpec::parse("cg/bj;nblocks=8");
  SessionCache cache(8);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> converged{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SessionCache::Lease lease = cache.lease(out.handle, out.problem, spec);
      if (lease.session().solve().converged) converged.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(converged.load(), kThreads)
      << "serialized leases must never hit the Session concurrent-use guard";
  const SessionCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "setup paid exactly once across all threads";
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

}  // namespace
}  // namespace nk::service
