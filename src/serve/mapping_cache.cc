#include "src/serve/mapping_cache.h"

#include <algorithm>

#include "src/base/string_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace cmif {

std::size_t CompiledPresentation::CostBytes() const {
  std::size_t bytes = map.Serialize().size();
  for (const FilterPlan& plan : filter.plans) {
    bytes += plan.descriptor_id.size() + plan.ops.size() * sizeof(FilterOp);
  }
  bytes += schedule.schedule.events().size() * sizeof(ScheduledEvent);
  return bytes;
}

std::size_t MappingCacheKeyHash::operator()(const MappingCacheKey& key) const {
  std::uint64_t hash = Fnv1a64(key.profile);
  hash = Fnv1a64Combine(hash, key.document_hash);
  hash = Fnv1a64Combine(hash, key.channel_hash);
  hash = Fnv1a64Combine(hash, key.store_generation);
  return static_cast<std::size_t>(hash);
}

MappingCache::MappingCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const CompiledPresentation> MappingCache::Get(const MappingCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (obs::Enabled()) {
      static obs::Counter& misses = obs::GetCounter("serve.cache.misses");
      misses.Add();
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  std::shared_ptr<const CompiledPresentation> value = it->second->presentation;
  std::size_t saved = value->CostBytes();
  stats_.bytes_saved += saved;
  if (obs::Enabled()) {
    static obs::Counter& hits = obs::GetCounter("serve.cache.hits");
    static obs::Counter& bytes_saved = obs::GetCounter("serve.cache.bytes_saved");
    hits.Add();
    bytes_saved.Add(static_cast<std::int64_t>(saved));
  }
  return value;
}

std::shared_ptr<const CompiledPresentation> MappingCache::GetStale(const MappingCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const CompiledPresentation>* best = nullptr;
  std::uint64_t best_generation = 0;
  for (const Entry& entry : lru_) {
    const MappingCacheKey& entry_key = entry.key;
    if (entry_key.document_hash != key.document_hash ||
        entry_key.channel_hash != key.channel_hash || entry_key.profile != key.profile) {
      continue;
    }
    if (best == nullptr || entry_key.store_generation > best_generation) {
      best = &entry.presentation;
      best_generation = entry_key.store_generation;
    }
  }
  if (best == nullptr) {
    return nullptr;
  }
  ++stats_.stale_hits;
  if (obs::Enabled()) {
    static obs::Counter& stale_hits = obs::GetCounter("serve.cache.stale_hits");
    stale_hits.Add();
  }
  return *best;
}

void MappingCache::Put(const MappingCacheKey& key,
                       std::shared_ptr<const CompiledPresentation> value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    *it->second = Entry{key, std::move(value), nullptr, 0};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value), nullptr, 0});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (obs::Enabled()) {
      static obs::Counter& evictions = obs::GetCounter("serve.cache.evictions");
      evictions.Add();
    }
  }
  stats_.entries = lru_.size();
}

std::shared_ptr<const StreamPlan> MappingCache::GetPlan(const MappingCacheKey& key,
                                                        const CompiledPresentation& presentation,
                                                        std::uint64_t block_generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->presentation.get() != &presentation ||
      it->second->plan_block_generation != block_generation) {
    return nullptr;
  }
  return it->second->plan;
}

void MappingCache::PutPlan(const MappingCacheKey& key, const CompiledPresentation& presentation,
                           std::uint64_t block_generation,
                           std::shared_ptr<const StreamPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->presentation.get() != &presentation) {
    return;
  }
  it->second->plan = std::move(plan);
  it->second->plan_block_generation = block_generation;
}

MappingCache::Stats MappingCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

void MappingCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
}

}  // namespace cmif
