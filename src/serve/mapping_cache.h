// The presentation-mapping cache: the Madeus/LimSee export-architecture
// trick of caching *compiled* presentation mappings per target. A compiled
// presentation is everything the descriptor-only pipeline derives from a
// (document, profile) pair — the presentation map, the constraint-filter
// report, and the solved schedule — so a cache hit answers a serve request
// without touching the mapping, filtering, or scheduling stages at all.
//
// Keys combine the document content hash, the channel-set hash, the profile
// name, and the shared store generation; any catalog mutation therefore
// invalidates every compilation that might have read it (see
// src/ddbms/shared_store.h).
#ifndef SRC_SERVE_MAPPING_CACHE_H_
#define SRC_SERVE_MAPPING_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/present/filter.h"
#include "src/present/presentation_map.h"
#include "src/sched/conflict.h"

namespace cmif {

// What the cold path compiles and the warm path returns. Entries are shared
// immutable: workers hold shared_ptrs, so eviction never invalidates a
// response in flight. The embedded Schedule refers to nodes of the corpus
// document it was compiled from, which outlives the cache.
struct CompiledPresentation {
  PresentationMap map;
  FilterReport filter;
  ScheduleResult schedule;

  // Approximate bytes of derived state a hit avoids recomputing (used for
  // the serve.cache.bytes_saved counter).
  std::size_t CostBytes() const;
};

// The delivery plan built from a compiled presentation (src/serve/
// prefetch.h). An entry can memoize one beside its presentation.
struct StreamPlan;

struct MappingCacheKey {
  std::uint64_t document_hash = 0;   // Fnv1a64 of the serialized document
  std::uint64_t channel_hash = 0;    // Fnv1a64 over channel (name, type) pairs
  std::uint64_t store_generation = 0;
  std::string profile;

  bool operator==(const MappingCacheKey& other) const = default;
};

struct MappingCacheKeyHash {
  std::size_t operator()(const MappingCacheKey& key) const;
};

// A bounded LRU map from MappingCacheKey to compiled presentations. All
// operations are thread-safe behind one mutex — a hit is a hash probe plus a
// list splice, orders of magnitude cheaper than the compile it replaces, so
// a single lock does not bottleneck the serve loop.
class MappingCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_hits = 0;  // GetStale lookups that found an entry
    std::uint64_t evictions = 0;
    std::uint64_t bytes_saved = 0;  // sum of CostBytes() over hits
    std::size_t entries = 0;
  };

  // capacity < 1 is clamped to 1.
  explicit MappingCache(std::size_t capacity);

  // nullptr on miss. Hits refresh recency and bump hit counters.
  std::shared_ptr<const CompiledPresentation> Get(const MappingCacheKey& key);

  // Degraded lookup: the freshest entry matching `key` on every field
  // *except* store_generation. Used by the serve loop's stale-while-error
  // path — a compile failed, so a presentation built against an older
  // catalog beats no presentation at all. Does not refresh recency and does
  // not count as a regular hit (stale_hits instead), so degraded serving
  // never masquerades as healthy cache behavior.
  std::shared_ptr<const CompiledPresentation> GetStale(const MappingCacheKey& key);

  // Inserts (or replaces) an entry, evicting the least recently used entry
  // when over capacity. Replacing an entry drops its memoized plan.
  void Put(const MappingCacheKey& key, std::shared_ptr<const CompiledPresentation> value);

  // The stream plan memoized beside the entry under `key`: non-null only
  // while that entry still holds `presentation` and the plan was built under
  // `block_generation` (the key itself pins the descriptor generation and
  // the profile). Touches neither recency nor the hit counters — the
  // presentation lookup before it already did.
  std::shared_ptr<const StreamPlan> GetPlan(const MappingCacheKey& key,
                                            const CompiledPresentation& presentation,
                                            std::uint64_t block_generation) const;

  // Memoizes `plan` beside the entry under `key` when that entry still
  // holds `presentation`; an evicted or replaced entry drops it. The plan
  // lives exactly as long as its entry, so Clear(), eviction and the
  // capacity bound plans too.
  void PutPlan(const MappingCacheKey& key, const CompiledPresentation& presentation,
               std::uint64_t block_generation, std::shared_ptr<const StreamPlan> plan);

  Stats stats() const;
  std::size_t capacity() const { return capacity_; }

  // Drops every entry (stats are kept).
  void Clear();

 private:
  struct Entry {
    MappingCacheKey key;
    std::shared_ptr<const CompiledPresentation> presentation;
    // Null until the entry's presentation is first planned for delivery.
    std::shared_ptr<const StreamPlan> plan;
    std::uint64_t plan_block_generation = 0;
  };
  using LruList = std::list<Entry>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<MappingCacheKey, LruList::iterator, MappingCacheKeyHash> index_;
  Stats stats_;
};

}  // namespace cmif

#endif  // SRC_SERVE_MAPPING_CACHE_H_
