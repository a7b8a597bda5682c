#include "subseq/serve/segment_cache.h"

#include <bit>
#include <iterator>
#include <utility>

namespace subseq {

namespace {

// Fixed per-entry bookkeeping estimate (list node links, map slot, the
// vectors' headers). The exact heap shape is allocator-dependent; a
// fixed constant keeps the accounting deterministic.
constexpr size_t kEntryOverheadBytes = 96;

size_t EntryCharge(size_t key_bytes, const SegmentResultCache::Entry& entry) {
  return key_bytes + entry.windows.size() * sizeof(ObjectId) +
         entry.distances.size() * sizeof(double) + kEntryOverheadBytes;
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
