// The serving layer's two memo tiers (docs/SERVING.md), both built on the
// one bounded LRU below (serve::Lru):
//
//   * ResultCache — whole completed replays, fingerprint -> QueryResult,
//     bounded true-LRU. A hit returns the memoized result object itself
//     (shared_ptr identity, no copy), which is bit-identical to a fresh
//     replay by the determinism contract the conformance suite enforces.
//   * WarmStore — component-level rate solutions published by completed
//     replays, the frozen sim::SolveStore behind cross-query warm-start.
//     Bounded LRU *by commit*: recency moves only when a replay publishes,
//     never on lookup, so concurrent lookups during a batch are plain const
//     reads and response bytes cannot depend on pool scheduling.
//
// The tiers differ only in when recency moves and when they trim. Neither
// container locks: QueryService touches them only from its sequential
// planning/commit phases (service.cpp); during the parallel execution phase
// the WarmStore is frozen and only read through the const lookup().
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "sim/solve_memo.hpp"

namespace bwshare::serve {

/// A least-recently-used map from 64-bit keys to values: a recency list
/// (front = most recent) plus a hash index into it. Recency moves only on
/// touch() and put(); entries leave only in trim(), which counts them, so
/// each caller decides when an overflow is settled.
template <typename Value>
class Lru {
 public:
  Lru() = default;
  // The index holds iterators into order_, which a copy would still point
  // into; a move carries the list nodes along, so they stay valid.
  Lru(const Lru&) = delete;
  Lru& operator=(const Lru&) = delete;
  Lru(Lru&&) = default;
  Lru& operator=(Lru&&) = default;

  /// The stored value, or null when absent. Never reorders.
  [[nodiscard]] const Value* find(uint64_t key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.second;
  }

  /// Mark a present key most recently used (no-op when absent).
  void touch(uint64_t key) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second.first);
    }
  }

  /// Insert or overwrite `key` and mark it most recently used. Never
  /// evicts: the size may exceed any bound until trim().
  void put(uint64_t key, Value value) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second.first);
      it->second.second = std::move(value);
      return;
    }
    order_.push_front(key);
    map_.emplace(key, std::make_pair(order_.begin(), std::move(value)));
  }

  /// Evict least-recently-used entries until at most `capacity` remain.
  void trim(size_t capacity) {
    while (map_.size() > capacity) {
      map_.erase(order_.back());
      order_.pop_back();
      ++evictions_;
    }
  }

  [[nodiscard]] size_t size() const { return map_.size(); }
  [[nodiscard]] size_t evictions() const { return evictions_; }
  [[nodiscard]] std::vector<uint64_t> keys_mru_first() const {
    return {order_.begin(), order_.end()};
  }

 private:
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t,
                     std::pair<std::list<uint64_t>::iterator, Value>>
      map_;
  size_t evictions_ = 0;
};

/// One executed query, as cached and as returned: the sweep-style summary
/// row plus the full replay evidence behind it.
struct QueryResult {
  eval::SweepCell cell;  // summary numbers; ok=false + error on failure
  sim::Placement placement;
  std::shared_ptr<const sim::SimResult> measured;
  std::shared_ptr<const sim::SimResult> predicted;
  uint64_t fingerprint = 0;
  /// serve::hash_sim_result over measured then predicted, combined — the
  /// one-number replay identity the response line carries.
  uint64_t result_hash = 0;
};

/// Bounded LRU of completed replays, keyed by query fingerprint.
/// Capacity 0 = serve-through: nothing is ever stored, every lookup misses.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Null on miss; a hit returns the stored object and marks it
  /// most-recently-used.
  [[nodiscard]] std::shared_ptr<const QueryResult> lookup(uint64_t fp);

  /// Insert (or refresh) and mark most-recently-used, evicting the
  /// least-recently-used entry when over capacity.
  void insert(uint64_t fp, std::shared_ptr<const QueryResult> result);

  [[nodiscard]] size_t size() const { return lru_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t evictions() const { return lru_.evictions(); }
  /// Fingerprints, most-recently-used first — the eviction-order pins in
  /// tests/serve/test_fingerprint.cpp read this.
  [[nodiscard]] std::vector<uint64_t> keys_mru_first() const {
    return lru_.keys_mru_first();
  }

 private:
  size_t capacity_;
  Lru<std::shared_ptr<const QueryResult>> lru_;
};

/// Bounded store of component rate solutions, the frozen tier every
/// replay's sim::SolveMemo reads. Capacity 0 disables warm-start.
class WarmStore final : public sim::SolveStore {
 public:
  explicit WarmStore(size_t capacity) : capacity_(capacity) {}

  /// Const read, safe to call concurrently from executing replays; never
  /// reorders or evicts (see header comment).
  bool lookup(uint64_t key, std::vector<double>& rates) const override;

  /// Publish one replay's staged solutions (sim::SolveMemo::staged(), which
  /// iterates in key order — deterministic). Existing keys refresh their
  /// commit recency; once every staged key is in, one trim evicts the
  /// least-recently-committed entries beyond capacity.
  void commit(const std::map<uint64_t, std::vector<double>>& staged);

  [[nodiscard]] size_t size() const { return lru_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t evictions() const { return lru_.evictions(); }

 private:
  size_t capacity_;
  Lru<std::vector<double>> lru_;
};

}  // namespace bwshare::serve
