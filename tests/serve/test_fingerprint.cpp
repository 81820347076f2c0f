// serve query canonicalization + fingerprint stability pins, and the LRU
// pins for the shared serve::Lru and the two serving memo tiers built on it
// (ResultCache, WarmStore).
//
// The fingerprint contract under test: queries that mean the same replay
// hash the same regardless of spelling (builtin scheme name vs .scheme path
// vs inline DSL text, "network" vs the explicit model name, renamed labels,
// inert seeds), and every semantic change — one byte more, one node
// elsewhere, a different axis value — hashes differently.
#include "serve/fingerprint.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/cache.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace bwshare::serve {
namespace {

const char* const kSchemeText =
    "scheme \"pin\"\n"
    "nodes 6\n"
    "comm a 0 -> 1 size 4MiB\n"
    "comm b 2 -> 3 size 4MiB\n"
    "comm c 4 -> 5 size 2MiB\n";

Query base_query() {
  Query q;
  q.id = "base";
  q.scheme_text = kSchemeText;
  return q;
}

uint64_t fp(const Query& q) { return canonicalize(q).fingerprint; }

TEST(Fingerprint, IsDeterministic) {
  EXPECT_EQ(fp(base_query()), fp(base_query()));
}

TEST(Fingerprint, IdIsExcluded) {
  Query other = base_query();
  other.id = "a completely different correlation tag";
  EXPECT_EQ(fp(base_query()), fp(other));
}

TEST(Fingerprint, SchemeNameAndLabelsAreDisplayOnly) {
  Query renamed = base_query();
  renamed.scheme_text =
      "scheme \"entirely-different-name\"\n"
      "nodes 6\n"
      "comm x 0 -> 1 size 4MiB\n"
      "comm y 2 -> 3 size 4MiB\n"
      "comm z 4 -> 5 size 2MiB\n";
  EXPECT_EQ(fp(base_query()), fp(renamed));
}

TEST(Fingerprint, BuiltinPathAndInlineSpellingsAgree) {
  // Three spellings of the paper's Fig. 2 S4 scheme: the builtin name, the
  // data/ file, and inline DSL text (all at the 20 MB referential size).
  Query builtin;
  builtin.scheme = "fig2_s4";
  Query file;
  file.scheme = std::string(BWSHARE_SOURCE_DIR) + "/data/fig2_s4.scheme";
  Query inline_text;
  inline_text.scheme_text =
      "scheme \"whatever\"\n"
      "nodes 5\n"
      "comm p 0 -> 1\n"
      "comm q 0 -> 2\n"
      "comm r 0 -> 3\n"
      "comm s 4 -> 1\n";
  EXPECT_EQ(fp(builtin), fp(file));
  EXPECT_EQ(fp(builtin), fp(inline_text));
}

TEST(Fingerprint, TracePathAndInlineTextAgree) {
  const std::string path =
      std::string(BWSHARE_SOURCE_DIR) + "/data/ring8.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();

  Query by_path;
  by_path.trace = path;
  Query by_text;
  by_text.trace_text = text.str();
  EXPECT_EQ(fp(by_path), fp(by_text));
}

TEST(Fingerprint, NetworkModelAliasResolvesBeforeHashing) {
  Query implicit = base_query();  // model defaults to "network"
  Query explicit_name = base_query();
  explicit_name.model = "gige";  // gige's own model, spelled out
  EXPECT_EQ(fp(implicit), fp(explicit_name));

  Query other_model = base_query();
  other_model.model = "loggp";
  EXPECT_NE(fp(implicit), fp(other_model));
}

TEST(Fingerprint, SeedIsCanonicalizedAwayWhenInert) {
  // RRN placement, no churn, no background, static scheme: nothing draws
  // from the seed, so it must not split the cache line.
  Query a = base_query();
  a.seed = 7;
  Query b = base_query();
  b.seed = 9;
  EXPECT_EQ(fp(a), fp(b));
  EXPECT_FALSE(canonicalize(a).seed_live);

  // Random placement revives it.
  a.schedule = "Random";
  b.schedule = "Random";
  EXPECT_NE(fp(a), fp(b));
  EXPECT_TRUE(canonicalize(a).seed_live);

  // So does a dynamic-cluster scenario.
  Query c = base_query();
  c.churn = 2.0;
  c.seed = 7;
  Query d = c;
  d.seed = 9;
  EXPECT_NE(fp(c), fp(d));
}

TEST(Fingerprint, EverySemanticAxisChangesTheHash) {
  const uint64_t base = fp(base_query());

  Query bytes = base_query();
  bytes.scheme_text =
      "scheme \"pin\"\n"
      "nodes 6\n"
      "comm a 0 -> 1 size 4MiB\n"
      "comm b 2 -> 3 size 4MiB\n"
      "comm c 4 -> 5 size 2097153\n";  // one byte more than 2MiB
  EXPECT_NE(base, fp(bytes));

  Query endpoint = base_query();
  endpoint.scheme_text =
      "scheme \"pin\"\n"
      "nodes 6\n"
      "comm a 0 -> 1 size 4MiB\n"
      "comm b 2 -> 3 size 4MiB\n"
      "comm c 4 -> 0 size 2MiB\n";  // same size, different receiver
  EXPECT_NE(base, fp(endpoint));

  Query network = base_query();
  network.network = "myrinet";
  EXPECT_NE(base, fp(network));

  Query nodes = base_query();
  nodes.nodes = 17;
  EXPECT_NE(base, fp(nodes));

  Query cores = base_query();
  cores.cores = 4;
  EXPECT_NE(base, fp(cores));

  Query schedule = base_query();
  schedule.schedule = "RRP";
  EXPECT_NE(base, fp(schedule));

  Query churn = base_query();
  churn.churn = 1.0;
  EXPECT_NE(base, fp(churn));

  Query background = base_query();
  background.background = 3.0;
  EXPECT_NE(base, fp(background));
}

TEST(Fingerprint, ClusterGrowsToFitTheScheme) {
  // A cluster too small for the scheme is grown during canonicalization
  // (mirroring eval::run_cell), so "nodes 4" and "nodes 6" mean the same
  // replay for a 6-node scheme.
  Query small = base_query();
  small.nodes = 4;
  Query grown = base_query();
  grown.nodes = 6;
  EXPECT_EQ(fp(small), fp(grown));
  EXPECT_EQ(canonicalize(small).nodes, 6);
}

TEST(Fingerprint, MalformedQueriesThrow) {
  Query none;
  EXPECT_THROW(static_cast<void>(canonicalize(none)), Error);

  Query both = base_query();
  both.trace = "also/a.trace";
  EXPECT_THROW(static_cast<void>(canonicalize(both)), Error);

  Query bad_nodes = base_query();
  bad_nodes.nodes = 0;
  EXPECT_THROW(static_cast<void>(canonicalize(bad_nodes)), Error);

  Query bad_network = base_query();
  bad_network.network = "token-ring";
  EXPECT_THROW(static_cast<void>(canonicalize(bad_network)), Error);

  Query bad_model = base_query();
  bad_model.model = "oracle";
  EXPECT_THROW(static_cast<void>(canonicalize(bad_model)), Error);

  Query bad_churn = base_query();
  bad_churn.churn = -1.0;
  EXPECT_THROW(static_cast<void>(canonicalize(bad_churn)), Error);

  Query empty_scheme;
  empty_scheme.scheme_text = "scheme \"hollow\"\nnodes 3\n";
  EXPECT_THROW(static_cast<void>(canonicalize(empty_scheme)), Error);
}

TEST(HashSimResult, TracksEveryField) {
  sim::SimResult r;
  r.makespan = 1.5;
  sim::CommRecord c{};
  c.src_task = 0;
  c.dst_task = 1;
  c.bytes = 4e6;
  c.finish = 1.5;
  r.comms.push_back(c);
  sim::TaskStats t{};
  t.finish_time = 1.5;
  r.tasks.push_back(t);

  const uint64_t base = hash_sim_result(r);
  EXPECT_EQ(base, hash_sim_result(r));  // deterministic

  sim::SimResult changed = r;
  changed.comms[0].finish = std::nextafter(1.5, 2.0);
  EXPECT_NE(base, hash_sim_result(changed));

  changed = r;
  changed.tasks[0].recvs = 1;
  EXPECT_NE(base, hash_sim_result(changed));

  changed = r;
  changed.background_skipped = 1;
  EXPECT_NE(base, hash_sim_result(changed));
}

// ---------------------------------------------------------------------------
// ResultCache LRU pins.

std::shared_ptr<const QueryResult> dummy_result(uint64_t fingerprint) {
  auto r = std::make_shared<QueryResult>();
  r->fingerprint = fingerprint;
  return r;
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert(1, dummy_result(1));
  cache.insert(2, dummy_result(2));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.lookup(1), nullptr);
  cache.insert(3, dummy_result(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(ResultCache, KeysMruFirstReflectsTouchOrder) {
  ResultCache cache(3);
  cache.insert(10, dummy_result(10));
  cache.insert(20, dummy_result(20));
  cache.insert(30, dummy_result(30));
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{30, 20, 10}));
  EXPECT_NE(cache.lookup(10), nullptr);
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{10, 30, 20}));
  cache.insert(20, dummy_result(20));  // refresh moves to front
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{20, 10, 30}));
}

TEST(ResultCache, HitReturnsTheStoredObject) {
  ResultCache cache(2);
  const auto stored = dummy_result(5);
  cache.insert(5, stored);
  EXPECT_EQ(cache.lookup(5).get(), stored.get());  // identity, not a copy
}

TEST(ResultCache, CapacityZeroServesThrough) {
  ResultCache cache(0);
  cache.insert(1, dummy_result(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.evictions(), 0u);
}

// ---------------------------------------------------------------------------
// Lru pins: the one recency container both tiers are built on.

TEST(Lru, FindNeverReordersAndTouchRefreshes) {
  Lru<int> lru;
  lru.put(1, 10);
  lru.put(2, 20);
  lru.put(3, 30);
  EXPECT_EQ(lru.keys_mru_first(), (std::vector<uint64_t>{3, 2, 1}));
  ASSERT_NE(lru.find(1), nullptr);
  EXPECT_EQ(*lru.find(1), 10);
  EXPECT_EQ(lru.find(4), nullptr);
  EXPECT_EQ(lru.keys_mru_first(), (std::vector<uint64_t>{3, 2, 1}));
  lru.touch(1);
  lru.touch(4);  // absent: no-op
  EXPECT_EQ(lru.keys_mru_first(), (std::vector<uint64_t>{1, 3, 2}));
  lru.put(2, 21);  // overwrite moves to the front
  EXPECT_EQ(lru.keys_mru_first(), (std::vector<uint64_t>{2, 1, 3}));
  EXPECT_EQ(*lru.find(2), 21);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.evictions(), 0u);
}

TEST(Lru, PutNeverEvictsAndTrimCountsTheOverflow) {
  Lru<int> lru;
  for (uint64_t k = 1; k <= 5; ++k) lru.put(k, static_cast<int>(k));
  EXPECT_EQ(lru.size(), 5u);
  EXPECT_EQ(lru.evictions(), 0u);
  lru.trim(5);  // nothing over the bound
  EXPECT_EQ(lru.evictions(), 0u);
  lru.trim(2);  // drops 1, 2, 3 from the LRU end
  EXPECT_EQ(lru.keys_mru_first(), (std::vector<uint64_t>{5, 4}));
  EXPECT_EQ(lru.find(3), nullptr);
  EXPECT_EQ(lru.evictions(), 3u);
  lru.trim(0);
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.evictions(), 5u);
}

// ---------------------------------------------------------------------------
// WarmStore pins: LRU by commit, lookups never reorder.

TEST(WarmStore, LookupsDoNotChangeEvictionOrder) {
  WarmStore store(2);
  store.commit({{1, {1.0}}, {2, {2.0}}});
  // Read key 1 many times; commit recency must be untouched, so 1 is still
  // the first victim.
  std::vector<double> rates;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(store.lookup(1, rates));
  store.commit({{3, {3.0}}});
  EXPECT_FALSE(store.lookup(1, rates));
  EXPECT_TRUE(store.lookup(2, rates));
  EXPECT_EQ(rates, (std::vector<double>{2.0}));
  EXPECT_TRUE(store.lookup(3, rates));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(WarmStore, RecommitRefreshesRecency) {
  WarmStore store(2);
  store.commit({{1, {1.0}}});
  store.commit({{2, {2.0}}});
  store.commit({{1, {1.0}}});  // same key, same bits: recency refresh
  store.commit({{3, {3.0}}});  // evicts 2, not 1
  std::vector<double> rates;
  EXPECT_TRUE(store.lookup(1, rates));
  EXPECT_FALSE(store.lookup(2, rates));
  EXPECT_TRUE(store.lookup(3, rates));
}

TEST(WarmStore, OverflowingCommitKeepsARefreshedLruKey) {
  // One commit that both overflows the store and refreshes the key at the
  // LRU end. Staged keys apply in key order and the store trims once, after
  // the whole commit: new key 0 pushes the size to 4, key 1 moves to the
  // front, and the single trim evicts 2. A trim after every insert would
  // evict 1 before its refresh, re-insert it and evict again.
  WarmStore store(3);
  store.commit({{1, {1.0}}, {2, {2.0}}, {3, {3.0}}});
  ASSERT_EQ(store.evictions(), 0u);
  store.commit({{0, {0.5}}, {1, {1.0}}});
  std::vector<double> rates;
  EXPECT_TRUE(store.lookup(1, rates));
  EXPECT_EQ(rates, (std::vector<double>{1.0}));
  EXPECT_TRUE(store.lookup(0, rates));
  EXPECT_TRUE(store.lookup(3, rates));
  EXPECT_FALSE(store.lookup(2, rates));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(WarmStore, CapacityZeroDisablesWarmStart) {
  WarmStore store(0);
  store.commit({{1, {1.0}}});
  std::vector<double> rates;
  EXPECT_FALSE(store.lookup(1, rates));
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace bwshare::serve
