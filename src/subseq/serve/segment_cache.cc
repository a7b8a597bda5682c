#include "subseq/serve/segment_cache.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

namespace subseq {

namespace {

// The heap block malloc hands out for a `bytes`-byte request (none for
// zero bytes); see EntryCharge.
size_t HeapBlock(size_t bytes) {
  if (bytes == 0) return 0;
  return std::max<size_t>(32, (bytes + 8 + 15) & ~size_t{15});
}

// The epsilon component of the key. Keys compare by bit pattern, but
// -0.0 and +0.0 compare equal everywhere else (including PlanCoalesce's
// grouping and every index's <= epsilon test), so they must share one
// keyspace — otherwise a -0.0 round would populate entries a +0.0 round
// could never hit.
uint64_t EpsilonBits(double epsilon) {
  return std::bit_cast<uint64_t>(epsilon == 0.0 ? 0.0 : epsilon);
}

}  // namespace

size_t SegmentResultCache::EntryCharge(size_t key_bytes,
                                       const Entry& entry) {
  // A std::list node is two links and the value; an unordered_map node
  // is a link, the value and the cached hash. The bucket array holds
  // between one and two slots per entry (load factor 1, doubling).
  static const size_t kFixed =
      HeapBlock(2 * sizeof(void*) + sizeof(Node)) +
      HeapBlock(sizeof(void*) +
                sizeof(std::pair<const KeyView, List::iterator>) +
                sizeof(size_t)) +
      2 * sizeof(void*);
  static const size_t kInPlaceKeyBytes = std::string().capacity();
  return kFixed +
         (key_bytes > kInPlaceKeyBytes ? HeapBlock(key_bytes + 1) : 0) +
         HeapBlock(entry.windows.capacity() * sizeof(ObjectId)) +
         HeapBlock(entry.distances.capacity() * sizeof(double));
}

void SegmentResultCache::MoveToFront(List::iterator it, Segment& to) {
  Segment& from = SegmentOf(*it);
  from.bytes -= it->charge;
  to.bytes += it->charge;
  to.lru.splice(to.lru.begin(), from.lru, it);
  it->is_protected = &to == &protected_;
}

void SegmentResultCache::Evict(List::iterator it) {
  Segment& segment = SegmentOf(*it);
  map_.erase(KeyView{it->epoch, it->kind, it->epsilon_bits,
                     std::string_view(it->bytes)});
  segment.bytes -= it->charge;
  counters_.bytes_used -= static_cast<int64_t>(it->charge);
  --counters_.entries;
  ++counters_.evictions;
  segment.lru.erase(it);
}

const SegmentResultCache::Entry* SegmentResultCache::Lookup(
    uint64_t epoch, IndexKind kind, double epsilon, const char* data,
    size_t bytes) {
  const KeyView key{epoch, kind, EpsilonBits(epsilon),
                    std::string_view(data, bytes)};
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  const List::iterator node = it->second;
  MoveToFront(node, protected_);  // a promotion on the first hit
  // Protected overflow demotes, never evicts: every entry charges at
  // most probation_cap_ <= protected_cap_, so the entry just promoted
  // always fits and stays.
  while (protected_.bytes > protected_cap_) {
    MoveToFront(std::prev(protected_.lru.end()), probation_);
  }
  return &node->entry;
}

void SegmentResultCache::Insert(uint64_t epoch, IndexKind kind,
                                double epsilon, const char* data,
                                size_t bytes, Entry entry) {
  const size_t charge = EntryCharge(bytes, entry);
  if (charge > probation_cap_) return;  // could never survive probation
  const uint64_t epsilon_bits = EpsilonBits(epsilon);

  const auto it = map_.find(KeyView{epoch, kind, epsilon_bits,
                                    std::string_view(data, bytes)});
  if (it != map_.end()) {
    // Refresh in place: swap the payload, fix the byte accounting.
    const List::iterator node = it->second;
    Segment& segment = SegmentOf(*node);
    segment.bytes = segment.bytes - node->charge + charge;
    counters_.bytes_used +=
        static_cast<int64_t>(charge) - static_cast<int64_t>(node->charge);
    node->entry = std::move(entry);
    node->charge = charge;
    MoveToFront(node, segment);
  } else {
    probation_.lru.push_front(Node{epoch, kind, /*is_protected=*/false,
                                   epsilon_bits, std::string(data, bytes),
                                   std::move(entry), charge});
    const Node& front = probation_.lru.front();
    map_.emplace(KeyView{front.epoch, front.kind, front.epsilon_bits,
                         std::string_view(front.bytes)},
                 probation_.lru.begin());
    probation_.bytes += charge;
    counters_.bytes_used += static_cast<int64_t>(charge);
    ++counters_.entries;
  }

  while (protected_.bytes > protected_cap_) {
    MoveToFront(std::prev(protected_.lru.end()), probation_);
  }
  while (probation_.bytes > probation_cap_) {
    Evict(std::prev(probation_.lru.end()));
  }
}

size_t SegmentResultCache::SweepDeadEpochs(uint64_t live_epoch,
                                           size_t max_scan) {
  size_t scanned = 0;
  size_t evicted = 0;
  // Probation's tail, then protected's: the order entries would leave
  // the cache in.
  for (Segment* segment : {&probation_, &protected_}) {
    auto it = segment->lru.end();
    while (it != segment->lru.begin() && scanned < max_scan) {
      --it;
      ++scanned;
      if (it->epoch == live_epoch) continue;
      // Step past the victim first; the loop's --it then lands on the
      // (older) node before it, so no node is skipped.
      Evict(it++);
      ++evicted;
    }
  }
  return evicted;
}

}  // namespace subseq
