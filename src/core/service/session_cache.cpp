#include "core/service/session_cache.hpp"

#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/problem.hpp"

namespace nk::service {

template <class Build>
ProblemTable::PutOutcome ProblemTable::put(std::uint64_t fp, Build&& build) {
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = table_.try_emplace(fp, nullptr);
    if (inserted) it->second = std::make_shared<Slot>();
    slot = it->second;
  }
  // Prepare (or wait for the preparer) under the slot latch, NOT the map
  // mutex: a cold stampede on one matrix pays preparation exactly once,
  // and unrelated clients are never serialized behind it.
  std::shared_ptr<const PreparedProblem> problem;
  bool cached = true;
  {
    std::unique_lock<std::mutex> slot_lk(slot->mu);
    if (!slot->problem) {
      try {
        slot->problem = build();
      } catch (...) {
        // Failed preparation must not leave a forever-empty slot: drop it
        // (if no later put already replaced it) and let the error out.
        slot_lk.unlock();
        const std::lock_guard<std::mutex> lk(mu_);
        auto it = table_.find(fp);
        if (it != table_.end() && it->second == slot) table_.erase(it);
        throw;
      }
      cached = false;
    }
    problem = slot->problem;
  }
  // Counters AFTER releasing the slot latch (map-then-slot is the only
  // lock order anywhere in this file).
  const std::lock_guard<std::mutex> lk(mu_);
  if (cached)
    ++hits_;
  else
    ++misses_;
  return {fp, std::move(problem), cached};
}

ProblemTable::PutOutcome ProblemTable::put_matrix(CsrMatrix<double> a, bool symmetric) {
  const std::uint64_t fp = matrix_fingerprint(a, symmetric);
  return put(fp, [&] {
    return std::make_shared<const PreparedProblem>(
        prepare_problem("client-" + fingerprint_hex(fp), std::move(a), symmetric,
                        /*alpha_ilu=*/1.0, /*alpha_ainv=*/1.0, /*rhs_seed=*/7));
  });
}

ProblemTable::PutOutcome ProblemTable::put_standin(const std::string& name, int scale) {
  return put(standin_fingerprint(name, scale), [&] {
    return std::make_shared<const PreparedProblem>(prepare_standin(name, scale));
  });
}

std::shared_ptr<const PreparedProblem> ProblemTable::find(std::uint64_t handle) const {
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = table_.find(handle);
    if (it == table_.end()) return nullptr;
    slot = it->second;
  }
  // May briefly block behind an in-flight preparation of this handle —
  // which is exactly the wait a SOLVE racing its own PUT wants.
  const std::lock_guard<std::mutex> slot_lk(slot->mu);
  return slot->problem;
}

bool ProblemTable::erase(std::uint64_t handle) {
  const std::lock_guard<std::mutex> lk(mu_);
  return table_.erase(handle) != 0;
}

ProblemTable::Stats ProblemTable::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, table_.size()};
}

SessionCache::Lease SessionCache::lease(std::uint64_t handle,
                                        std::shared_ptr<const PreparedProblem> p,
                                        const SolverSpec& spec) {
  const std::string key = fingerprint_hex(handle) + "|" + spec.to_string();
  std::shared_ptr<Entry> entry;
  bool fresh = false;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::make_shared<Entry>()).first;
      fresh = true;
    }
    entry = it->second;
    entry->last_used = ++tick_;
    if (fresh && entries_.size() > capacity_) evict_idle_locked(key);
  }
  // Take the entry lock OUTSIDE the cache mutex: waiting for another
  // client's solve on this Session must not block unrelated leases.
  std::unique_lock<std::mutex> entry_lk(entry->mu);
  Lease lease(std::move(entry), std::move(entry_lk));
  if (!lease.entry_->session) {
    // Built under the entry lock so concurrent lessees of the same key
    // pay setup exactly once.  On throw (unknown kind) the entry stays
    // session-less and the next lease retries; hit/miss counters are
    // settled only once construction succeeds.
    lease.entry_->session = std::make_unique<Session>(std::move(p), spec);
    lease.built_ = true;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (lease.built_)
      ++misses_;
    else
      ++hits_;
  }
  return lease;
}

void SessionCache::evict_idle_locked(const std::string& keep_key) {
  // Reclaim oldest-idle entries until back under capacity.  try_lock is
  // the idleness test: a held lock means a solve is in flight there, and
  // in-flight sessions are never evicted (their Lease keeps the Entry
  // alive regardless, but we also keep them resident for reuse).
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep_key) continue;
      if (victim != entries_.end() && it->second->last_used >= victim->second->last_used)
        continue;
      if (it->second->mu.try_lock()) {
        it->second->mu.unlock();
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything else is in flight
    entries_.erase(victim);
    ++evictions_;
  }
}

SessionCache::Stats SessionCache::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, evictions_, entries_.size()};
}

}  // namespace nk::service
