// SegmentResultCache — the serving layer's cross-round result cache.
//
// PR 2's coalescer shares filter work *within* one admission round:
// bit-identical segments contributed by concurrently-pending queries are
// issued to the index once. Under a serving workload the same segments
// also repeat heavily *across* rounds — hot queries arrive all day, not
// all at once — and that reuse is invisible to a per-round dedup. The
// cache closes the gap: it carries, per unique (IndexKind, epsilon,
// segment bytes) key, the segment's filter hit list in canonical
// ascending-window order, the per-hit exact segment-to-window distances
// (the pass step 5 orders verification by, previously recomputed per
// owner), and the segment's stand-alone index cost (what billing
// charges). A warm lookup replaces both the index traversal and the
// per-hit distance pass.
//
// Correctness rests on two facts. First, every key carries the EPOCH of
// the index that produced the entry: within one epoch the indexes are
// immutable and exact, so the hit set, the per-hit distances, and the
// stand-alone distance-computation count of a (epoch, kind, epsilon,
// segment bytes) key are pure functions of that key, and a warm answer
// is bit-identical (hits, distances, AND billed stats) to the cold one.
// Live ingest makes the epoch part of the key load-bearing: an epoch
// swap changes both the hit sets (appended/retired windows) and the
// billing splits (delta scan vs merged base), so entries of a dead
// epoch can never be served — they simply miss, and SweepDeadEpochs
// lazily evicts them a bounded slice per admission round. Second,
// billing reads the *stored* stand-alone cost, so a query answered warm
// reports exactly the MatchQueryStats the direct library call would —
// the cache, like coalescing, changes executed work only (surfaced via
// ServeStats::cache_* counters and cache_shared_computations).
//
// Threading: externally synchronized. The cache is owned by MatchServer
// and touched only from its admission loop (the service thread), which
// is also what keeps Lookup's returned pointers valid for the duration
// of one coalesced filter call (Insert may evict; callers insert only
// after they are done reading warm entries).

#ifndef SUBSEQ_SERVE_SEGMENT_CACHE_H_
#define SUBSEQ_SERVE_SEGMENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "subseq/core/types.h"
#include "subseq/frame/matcher.h"

namespace subseq {

/// Word-at-a-time hash over raw segment bytes — the hash behind both the
/// coalescer's in-round dedup key and the cache key. Processes eight
/// bytes per step (a splitmix64-style avalanche per word folded
/// FNV-style) instead of the previous byte-at-a-time FNV-1a, whose per
/// -byte multiply dominated the dedup pass on long segments. Equality
/// stays memcmp over the bytes; the hash only has to be fast and well
/// mixed.
inline uint64_t HashSegmentBytes(const char* data, size_t bytes) {
  const auto mix = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  };
  uint64_t h = 1469598103934665603ull ^ mix(static_cast<uint64_t>(bytes));
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ mix(word)) * 1099511628211ull;
  }
  if (i < bytes) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, bytes - i);  // zero-padded tail
    h = (h ^ mix(word)) * 1099511628211ull;
  }
  return h;
}

/// Epsilon-aware segmented-LRU cache of per-segment filter results
/// (Karedla, Love and Wherry, IEEE Computer 1994). Capacity is
/// byte-accounted — each entry is charged the heap it occupies (see
/// EntryCharge) — and split in two LRU segments:
///  * probation — every new entry enters here; capped at a quarter of
///    the capacity, and the only segment that evicts;
///  * protected — an entry's first hit promotes it here; it holds the
///    rest of the capacity, and its overflow demotes its least recently
///    used entries to the front of probation.
/// A segment seen once still warms the cache (a repeat hits it in
/// probation), but segments that are never hit — a stream of distinct
/// queries — can hold at most a quarter of the budget, and can never
/// evict an entry that has been hit. Not thread-safe (see file comment).
class SegmentResultCache {
 public:
  /// One cached unique segment's filter outcome at (kind, epsilon).
  struct Entry {
    /// Hit windows in canonical ascending-ObjectId order.
    std::vector<ObjectId> windows;
    /// distances[i] — the exact segment-to-window distance of windows[i]
    /// (the fill MergeSegmentHits would otherwise recompute per owner).
    std::vector<double> distances;
    /// The stand-alone index cost of this segment (the per-query split of
    /// the call that produced the entry) — what every warm owner is
    /// billed, keeping reported stats identical to the uncached path.
    int64_t filter_computations = 0;
  };

  /// Monotonic counters; snapshot via counters().
  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t entries = 0;      // resident now
    int64_t bytes_used = 0;   // resident now
  };

  explicit SegmentResultCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes),
        probation_cap_(capacity_bytes / 4),
        protected_cap_(capacity_bytes - capacity_bytes / 4) {}
  SegmentResultCache(const SegmentResultCache&) = delete;
  SegmentResultCache& operator=(const SegmentResultCache&) = delete;

  /// The bytes charged against the capacity for `entry` stored under a
  /// `key_bytes`-byte segment: the heap the entry occupies. That is its
  /// list node, its map node and two bucket slots of the map, the key's
  /// heap block when the key is longer than std::string's in-place
  /// buffer, and the two vectors' heap blocks by capacity. Each block is
  /// sized as glibc's malloc sizes it on a 64-bit target: the request
  /// plus an 8-byte header, rounded up to 16, at least 32 bytes.
  static size_t EntryCharge(size_t key_bytes, const Entry& entry);

  /// Returns the entry for (epoch, kind, epsilon, bytes) and marks it
  /// most recently used — promoting it to the protected segment on its
  /// first hit — or nullptr (counting a miss). An entry stored under any
  /// other epoch never matches — the epoch in the key is what makes a
  /// cross-epoch stale hit structurally impossible. The pointer stays
  /// valid until the next Insert — Lookup never evicts (a promotion's
  /// demotions only move entries between segments).
  const Entry* Lookup(uint64_t epoch, IndexKind kind, double epsilon,
                      const char* data, size_t bytes);

  /// Stores an entry under (epoch, kind, epsilon, bytes) at the front of
  /// probation, then evicts probation's LRU entries until it is back
  /// under its quarter of the capacity. An entry larger than that
  /// quarter is not stored at all (it could never be re-used before
  /// eviction). Inserting an existing key refreshes the entry in its
  /// segment.
  void Insert(uint64_t epoch, IndexKind kind, double epsilon,
              const char* data, size_t bytes, Entry entry);

  /// Lazily reclaims entries of dead epochs: scans up to `max_scan`
  /// nodes from the LRU tails — probation's, then protected's — and
  /// evicts every one whose epoch differs from `live_epoch` (counted in
  /// Counters::evictions). Bounded so the admission loop can amortize
  /// reclamation across rounds instead of stalling on a swap; dead
  /// entries that escape a sweep still can never be served (they miss
  /// by key) and age out through probation anyway. Returns the number
  /// evicted.
  size_t SweepDeadEpochs(uint64_t live_epoch, size_t max_scan);

  Counters counters() const { return counters_; }
  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  /// Nodes own their key bytes; the map's keys are views into them
  /// (std::list nodes are address-stable, and splice — within a list or
  /// between the two segments — moves no storage).
  struct Node {
    uint64_t epoch;
    IndexKind kind;
    bool is_protected;  // sits in kind's padding: no per-node growth
    uint64_t epsilon_bits;
    std::string bytes;
    Entry entry;
    size_t charge = 0;
  };
  using List = std::list<Node>;

  struct KeyView {
    uint64_t epoch;
    IndexKind kind;
    uint64_t epsilon_bits;
    std::string_view bytes;

    friend bool operator==(const KeyView& a, const KeyView& b) {
      return a.epoch == b.epoch && a.kind == b.kind &&
             a.epsilon_bits == b.epsilon_bits && a.bytes == b.bytes;
    }
  };

  struct KeyViewHash {
    size_t operator()(const KeyView& key) const {
      uint64_t h = HashSegmentBytes(key.bytes.data(), key.bytes.size());
      h ^= key.epsilon_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(key.kind) * 0x2545f4914f6cdd1dull;
      h ^= (key.epoch + 0x9e3779b97f4a7c15ull) * 0xff51afd7ed558ccdull;
      return static_cast<size_t>(h);
    }
  };

  /// Segment bookkeeping: the list (front = most recently used) and
  /// the bytes its entries are charged.
  struct Segment {
    List lru;
    size_t bytes = 0;
  };

  Segment& SegmentOf(const Node& node) {
    return node.is_protected ? protected_ : probation_;
  }
  /// Moves `it` to the front of `to` (possibly its own segment).
  void MoveToFront(List::iterator it, Segment& to);
  /// Removes `it` from its segment and the map, counting an eviction.
  void Evict(List::iterator it);

  size_t capacity_bytes_;
  size_t probation_cap_;  // capacity_bytes_ / 4
  size_t protected_cap_;  // the rest
  Segment probation_;
  Segment protected_;
  std::unordered_map<KeyView, List::iterator, KeyViewHash> map_;
  Counters counters_;
};

}  // namespace subseq

#endif  // SUBSEQ_SERVE_SEGMENT_CACHE_H_
