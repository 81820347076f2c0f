#include "serve/cache.hpp"

#include <utility>

namespace bwshare::serve {

std::shared_ptr<const QueryResult> ResultCache::lookup(uint64_t fp) {
  const auto* hit = lru_.find(fp);
  if (hit == nullptr) return nullptr;
  lru_.touch(fp);
  return *hit;
}

void ResultCache::insert(uint64_t fp,
                         std::shared_ptr<const QueryResult> result) {
  if (capacity_ == 0) return;
  lru_.put(fp, std::move(result));
  lru_.trim(capacity_);
}

bool WarmStore::lookup(uint64_t key, std::vector<double>& rates) const {
  const auto* hit = lru_.find(key);
  if (hit == nullptr) return false;
  rates = *hit;
  return true;
}

void WarmStore::commit(
    const std::map<uint64_t, std::vector<double>>& staged) {
  if (capacity_ == 0) return;
  for (const auto& [key, rates] : staged) {
    // Same key => same bits (the solve-memo purity contract); only the
    // commit recency needs refreshing.
    if (lru_.find(key) != nullptr) {
      lru_.touch(key);
    } else {
      lru_.put(key, rates);
    }
  }
  // One trim per commit: trimming per insert could evict a key this very
  // commit refreshes later in key order.
  lru_.trim(capacity_);
}

}  // namespace bwshare::serve
