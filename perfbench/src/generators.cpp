#include "generators.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>

namespace perfbench {

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  SplitMix64 rng(seed ^ (salt * 0xd1342543de82ef95ULL));
  return rng.next();
}

bwshare::sim::AppTrace matching_trace(int nodes, int rounds, double bytes,
                                      uint64_t seed) {
  using bwshare::sim::Event;
  bwshare::sim::AppTrace trace(nodes);
  SplitMix64 rng(mix_seed(seed, 1));
  std::vector<int> order(static_cast<size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < rounds; ++r) {
    for (int i = nodes - 1; i > 0; --i) {  // Fisher-Yates
      const auto j = static_cast<size_t>(rng.below(static_cast<uint64_t>(i) + 1));
      std::swap(order[static_cast<size_t>(i)], order[j]);
    }
    for (int p = 0; p + 1 < nodes; p += 2) {
      const int src = order[static_cast<size_t>(p)];
      const int dst = order[static_cast<size_t>(p + 1)];
      trace.push(src, Event::send(dst, bytes));
      trace.push(dst, Event::recv(src, bytes));
    }
    trace.push_barrier_all();
  }
  return trace;
}

namespace {

constexpr int kSchemeNodes = 48;
constexpr int kSchemeComms = 48;
constexpr int kGroupNodes = 24;
constexpr std::array<const char*, 3> kNetworks = {"gige", "myrinet", "ib"};

struct Arc {
  int src = 0;
  int dst = 0;
  int kib = 0;  // message size in KiB
};

struct Scheme {
  std::vector<Arc> arcs;
  size_t network = 0;
  int serial = 0;  // distinguishes the scheme's name
};

/// A random arc inside the node group of arc slot `slot`: the scheme's
/// nodes fall into groups of kGroupNodes and slot i lives in group
/// i mod (number of groups), so every scheme is a union of independent
/// equal-size sub-schemes. One dense 48-comm component would make the
/// Myrinet model's state enumeration heavy-tailed (single queries from
/// 1 ms to over 200 ms), and a pass's cost would then hinge on a few
/// seed-chosen schemes.
Arc random_arc(SplitMix64& rng, size_t slot) {
  constexpr int groups = kSchemeNodes / kGroupNodes;
  const int base = static_cast<int>(slot % groups) * kGroupNodes;
  Arc a;
  a.src = base + static_cast<int>(rng.below(kGroupNodes));
  do {
    a.dst = base + static_cast<int>(rng.below(kGroupNodes));
  } while (a.dst == a.src);
  // Log-uniform 512 KiB .. 8 MiB in power-of-two steps.
  a.kib = 512 << rng.below(5);
  return a;
}

std::string to_line(const Scheme& s, int query_id) {
  std::string text = "scheme \\\"mix" + std::to_string(s.serial) +
                     "\\\"\\nnodes " + std::to_string(kSchemeNodes) + "\\n";
  for (size_t i = 0; i < s.arcs.size(); ++i) {
    const Arc& a = s.arcs[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "comm c%zu %d -> %d size %dKiB\\n", i,
                  a.src, a.dst, a.kib);
    text += buf;
  }
  return "{\"id\":\"q" + std::to_string(query_id) + "\",\"scheme_text\":\"" +
         text + "\",\"network\":\"" + kNetworks[s.network] + "\"}";
}

}  // namespace

size_t ServeStream::num_queries() const {
  size_t n = 0;
  for (const auto& b : batches) n += b.size();
  return n;
}

std::string ServeStream::text() const {
  std::string out;
  for (const auto& b : batches) {
    for (const auto& line : b) out += line + "\n";
    out += "\n";
  }
  return out;
}

ServeStream serve_stream(uint64_t seed, int batches) {
  enum Kind { kFresh, kEdit, kRepeat, kDup };
  SplitMix64 rng(mix_seed(seed, 2));
  ServeStream out;
  std::vector<Scheme> history;  // every distinct scheme served so far
  int serial = 0;
  int query_id = 0;
  size_t fresh_count = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<Kind> kinds = {kFresh, kFresh, kFresh, kRepeat,
                               kRepeat, kEdit};
    kinds.push_back(b % 3 == 0 ? kFresh : b % 3 == 1 ? kEdit : kRepeat);
    for (size_t i = kinds.size() - 1; i > 0; --i)
      std::swap(kinds[i], kinds[rng.below(i + 1)]);
    std::vector<std::string> lines;
    std::vector<Scheme> schemes;  // parallel to lines
    std::vector<size_t> misses;  // lines of this batch that need a replay
    for (const Kind kind : kinds) {
      Scheme s;
      if (kind == kRepeat && !history.empty()) {
        // Reuse distance up to 96 distinct schemes back: most repeats land
        // inside the 64-entry result cache, the rest were evicted.
        const size_t back = std::min<size_t>(history.size(), 96);
        s = history[history.size() - 1 - rng.below(back)];
      } else if (kind == kEdit && !history.empty()) {
        // One-comm edit of a recent scheme: the warm-start path.
        const size_t back = std::min<size_t>(history.size(), 16);
        s = history[history.size() - 1 - rng.below(back)];
        const size_t i = rng.below(s.arcs.size());
        s.arcs[i] = random_arc(rng, i);
        s.serial = ++serial;
        history.push_back(s);
        misses.push_back(lines.size());
      } else {
        s.network = fresh_count++ % kNetworks.size();
        for (int c = 0; c < kSchemeComms; ++c)
          s.arcs.push_back(random_arc(rng, s.arcs.size()));
        s.serial = ++serial;
        history.push_back(s);
        misses.push_back(lines.size());
      }
      lines.push_back(to_line(s, query_id++));
      schemes.push_back(std::move(s));
    }
    // The in-batch duplicate copies one of this batch's replays, so it
    // coalesces onto it; it goes at a seeded position after its source.
    const size_t src = misses[rng.below(misses.size())];
    const size_t at = src + 1 + rng.below(lines.size() - src);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 to_line(schemes[src], query_id++));
    out.batches.push_back(std::move(lines));
  }
  return out;
}

}  // namespace perfbench
