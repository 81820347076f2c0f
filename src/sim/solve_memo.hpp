// Cross-query memoization of component rate solves — the warm-start
// machinery behind serve::QueryService (docs/SERVING.md).
//
// The engine's incremental refresh already scopes every rate solve to one
// coupling-closed connected component, and flowsim::RateProvider documents
// rates() as a *pure function of the induced subproblem*: the same members
// (source node, destination node, remaining bytes — by bit pattern) against
// the same provider always yield the same rate vector, bit for bit. That
// purity is what makes cross-query reuse safe by construction: a memo hit
// returns exactly the bits a fresh solve would have produced, so warm-started
// replays are bit-identical to cold ones — the cache only ever saves work,
// never changes an answer. Paranoia is still available: a SolveMemo built
// with verify=true re-solves every hit against the provider and throws on
// the first diverging bit (the serve suite's oracle mode), and an
// EngineConfig::cross_check replay re-solves every component fresh at every
// flush, so a memo hit that diverged would fail there too.
//
// Keying: the engine hashes (salt, then per member in record order: src node,
// dst node, remaining-bytes bit pattern) with util::StructuralHash. The salt
// must identify everything else that can influence the provider's arithmetic
// — provider kind, network calibration, penalty model — and is supplied by
// the owner (serve::QueryService derives it from the query's network/model).
// Slot indices, record ids and display labels are deliberately excluded:
// they vary across replays of equivalent subproblems.
//
// Concurrency: one SolveMemo belongs to one replay. Its *frozen* store (the
// cross-query SolveStore) is read-only for the whole replay; fresh solutions
// are staged privately and only published by the owner after the replay
// completes. Lookups and stages are mutex-guarded so SolveMode::kParallel
// flushes stay race-free. Within a replay two distinct components can share
// a key (same structure); whichever solves first stages the entry and the
// other may hit it — either way the bits are identical (purity again), so
// replay results never depend on thread timing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace bwshare::sim {

/// Read-only source of previously published component solutions. Lookups
/// must be thread-safe and must not mutate any state observable by other
/// lookups (serve::WarmStore satisfies this by only reordering/evicting at
/// commit time, never during reads).
class SolveStore {
 public:
  virtual ~SolveStore() = default;
  /// Fill `rates` and return true when `key` is present.
  virtual bool lookup(uint64_t key, std::vector<double>& rates) const = 0;
};

/// Per-replay memo handed to the engine via EngineConfig::solve_memo.
class SolveMemo {
 public:
  /// `frozen` may be null (pure recording); it must outlive the memo.
  /// `verify` re-solves every hit and demands bitwise agreement.
  explicit SolveMemo(const SolveStore* frozen = nullptr, uint64_t salt = 0,
                     bool verify = false)
      : frozen_(frozen), salt_(salt), verify_(verify) {}

  SolveMemo(const SolveMemo&) = delete;
  SolveMemo& operator=(const SolveMemo&) = delete;

  [[nodiscard]] uint64_t salt() const { return salt_; }
  [[nodiscard]] bool verify() const { return verify_; }

  /// Frozen store first, then this replay's own staged entries.
  /// Returns true on a hit; `from_frozen` reports which tier answered.
  bool lookup(uint64_t key, std::vector<double>& rates, bool& from_frozen);

  /// Record a fresh solution; insert-if-absent (a concurrent duplicate of
  /// the same key necessarily carries identical bits, see header comment).
  void stage(uint64_t key, const std::vector<double>& rates);

  /// This replay's fresh solutions, ordered by key — the deterministic
  /// publication order the owner commits to the cross-query store.
  [[nodiscard]] const std::map<uint64_t, std::vector<double>>& staged() const {
    return staged_;
  }

  /// Hits answered by the frozen store — the "this replay warm-started off
  /// earlier queries" signal. Deterministic for a given frozen store: every
  /// component solve performs exactly one lookup and the solve sequence is
  /// part of the engine's bit-identical contract.
  [[nodiscard]] size_t frozen_hits() const;
  /// Hits answered by this replay's own staged entries.
  [[nodiscard]] size_t staged_hits() const;
  [[nodiscard]] size_t misses() const;

 private:
  const SolveStore* frozen_;
  const uint64_t salt_;
  const bool verify_;

  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<double>> staged_;
  size_t frozen_hits_ = 0;
  size_t staged_hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace bwshare::sim
