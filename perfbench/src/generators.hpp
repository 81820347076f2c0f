// Seeded input generators for the benchmark workloads.
//
// Inputs come from the benchmark's own RNG (SplitMix64), never from the
// library's, so a change to the program cannot change what it is fed: the
// same seed gives byte-identical inputs on every commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/events.hpp"

namespace perfbench {

/// Seed reserved for confirming a claimed gain after the change was
/// written: tune on any other seed, then re-measure on this one.
inline constexpr uint64_t kHeldOutSeed = 20261017;

/// SplitMix64: tiny, fast, and fully specified, so inputs never depend on
/// the standard library's distributions.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) for n >= 1 (rejection-free multiply-shift; the
  /// bias is below 2^-32 for the small n used here).
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

/// Derive an independent stream seed from (seed, salt).
uint64_t mix_seed(uint64_t seed, uint64_t salt);

/// `rounds` rounds of a seeded random perfect matching on `nodes` tasks:
/// each task sends or receives exactly one `bytes`-byte rendezvous message
/// per round, rounds separated by barriers (the engine_scaling shape).
bwshare::sim::AppTrace matching_trace(int nodes, int rounds, double bytes,
                                      uint64_t seed);

/// One serve-mix stream: `batches` batches of JSON-line queries, each an
/// inline 48-node, 48-comm scheme made of two independent 24-node halves,
/// on gige, myrinet or ib in turn. The mix
/// per batch is fixed (3 fresh, 2 repeat, 1 one-comm edit, 1 in-batch
/// duplicate, plus one slot rotating fresh/edit/repeat); the seed picks
/// the schemes, networks, edits, reuse distances and slot order.
struct ServeStream {
  std::vector<std::vector<std::string>> batches;
  [[nodiscard]] size_t num_queries() const;
  /// All lines, blank line between batches (the daemon's wire format).
  [[nodiscard]] std::string text() const;
};
ServeStream serve_stream(uint64_t seed, int batches);

}  // namespace perfbench
