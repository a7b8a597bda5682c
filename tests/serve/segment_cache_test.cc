// SegmentResultCache unit tests: segmented-LRU mechanics (probation,
// promotion, demotion, eviction order), byte accounting against the
// heap an entry occupies, epsilon/kind-aware keys, and the
// word-at-a-time segment-byte hash the coalescer's dedup and the cache
// key share.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "subseq/serve/segment_cache.h"

namespace subseq {
namespace {

SegmentResultCache::Entry MakeEntry(std::vector<ObjectId> windows,
                                    int64_t cost) {
  SegmentResultCache::Entry entry;
  entry.distances.assign(windows.size(), 0.5);
  entry.windows = std::move(windows);
  entry.filter_computations = cost;
  return entry;
}

// Per-entry byte charge with an 8-byte key and no hits.
const size_t kEmptyEntryCharge =
    SegmentResultCache::EntryCharge(8, SegmentResultCache::Entry{});

TEST(SegmentCacheTest, HitReturnsStoredEntryAndCounts) {
  SegmentResultCache cache(1 << 20);
  const std::string key = "SEGMENTA";
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({3, 7}, 42));

  const SegmentResultCache::Entry* entry =
      cache.Lookup(0, IndexKind::kLinearScan, 1.0, key.data(), key.size());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->windows, (std::vector<ObjectId>{3, 7}));
  ASSERT_EQ(entry->distances.size(), 2u);
  EXPECT_EQ(entry->filter_computations, 42);

  const SegmentResultCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 0);
  EXPECT_EQ(counters.entries, 1);
  EXPECT_GT(counters.bytes_used, 0);
}

TEST(SegmentCacheTest, EpsilonAndKindAndBytesAllDistinguishKeys) {
  SegmentResultCache cache(1 << 20);
  const std::string key = "SEGMENTA";
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1}, 1));

  // Same bytes, different epsilon: the hit list depends on epsilon.
  EXPECT_EQ(cache.Lookup(0, IndexKind::kLinearScan, 2.0, key.data(), key.size()),
            nullptr);
  // Same bytes, same epsilon, different index kind: costs differ by kind.
  EXPECT_EQ(cache.Lookup(0, IndexKind::kCoverTree, 1.0, key.data(), key.size()),
            nullptr);
  // Different bytes.
  const std::string other = "SEGMENTB";
  EXPECT_EQ(
      cache.Lookup(0, IndexKind::kLinearScan, 1.0, other.data(), other.size()),
      nullptr);
  // The original triple still hits.
  EXPECT_NE(cache.Lookup(0, IndexKind::kLinearScan, 1.0, key.data(), key.size()),
            nullptr);
  EXPECT_EQ(cache.counters().misses, 3);
  EXPECT_EQ(cache.counters().hits, 1);
}

TEST(SegmentCacheTest, NegativeZeroEpsilonSharesTheZeroKeyspace) {
  // Keys compare epsilon by bit pattern, but -0.0 == +0.0 everywhere
  // else (PlanCoalesce's grouping, the indexes' <= epsilon test), so the
  // two must hit each other's entries.
  SegmentResultCache cache(1 << 20);
  const std::string key = "SEGMENTA";
  cache.Insert(0, IndexKind::kLinearScan, -0.0, key.data(), key.size(),
               MakeEntry({4}, 5));
  const SegmentResultCache::Entry* entry =
      cache.Lookup(0, IndexKind::kLinearScan, 0.0, key.data(), key.size());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->windows, (std::vector<ObjectId>{4}));
  // And only one entry exists for the logical zero epsilon.
  cache.Insert(0, IndexKind::kLinearScan, 0.0, key.data(), key.size(),
               MakeEntry({4}, 5));
  EXPECT_EQ(cache.counters().entries, 1);
}

// Eight empty-hit entries of budget: probation (a quarter) holds
// exactly two of them, protected the other six.
const size_t kEightEntryBudget = 8 * kEmptyEntryCharge;

std::string KeyOf(int i) { return "KEY" + std::to_string(10000 + i); }

void InsertEmpty(SegmentResultCache* cache, const std::string& key,
                 uint64_t epoch = 0) {
  cache->Insert(epoch, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
                MakeEntry({}, 1));
}

bool Hit(SegmentResultCache* cache, const std::string& key,
         uint64_t epoch = 0) {
  return cache->Lookup(epoch, IndexKind::kLinearScan, 1.0, key.data(),
                       key.size()) != nullptr;
}

TEST(SegmentCacheTest, LruEvictsLeastRecentlyUsedFirst) {
  // Segmented LRU: new entries queue in probation, which evicts its
  // least recently used entry first; an entry that has been hit sits in
  // protected and is not a candidate, however old.
  SegmentResultCache cache(kEightEntryBudget);
  const std::string a = "AAAAAAAA";
  const std::string b = "BBBBBBBB";
  const std::string c = "CCCCCCCC";
  const std::string d = "DDDDDDDD";
  const std::string e = "EEEEEEEE";
  InsertEmpty(&cache, a);
  InsertEmpty(&cache, b);
  // Hit A: promoted, so B — inserted later — becomes the probation
  // victim.
  ASSERT_TRUE(Hit(&cache, a));
  InsertEmpty(&cache, c);  // probation: C, B (full)
  EXPECT_EQ(cache.counters().evictions, 0);
  InsertEmpty(&cache, d);  // probation: D, C, B -> evicts B
  EXPECT_EQ(cache.counters().evictions, 1);
  InsertEmpty(&cache, e);  // probation: E, D, C -> evicts C
  EXPECT_EQ(cache.counters().evictions, 2);
  EXPECT_EQ(cache.counters().entries, 3);

  EXPECT_FALSE(Hit(&cache, b));  // evicted first
  EXPECT_FALSE(Hit(&cache, c));  // evicted second
  EXPECT_TRUE(Hit(&cache, a));
  EXPECT_TRUE(Hit(&cache, d));
  EXPECT_TRUE(Hit(&cache, e));
  EXPECT_EQ(cache.counters().evictions, 2);
}

TEST(SegmentCacheTest, ProtectedOverflowDemotesItsLruEntryIntoProbation) {
  // Seven hit entries overflow protected's six-entry share: its least
  // recently used entry (P0) drops to the front of probation — not out
  // of the cache — and leaves only once probation evicts it.
  SegmentResultCache cache(kEightEntryBudget);
  for (int i = 0; i < 7; ++i) {
    InsertEmpty(&cache, KeyOf(i));
    ASSERT_TRUE(Hit(&cache, KeyOf(i)));
  }
  EXPECT_EQ(cache.counters().entries, 7);
  EXPECT_EQ(cache.counters().evictions, 0);

  InsertEmpty(&cache, "XXXXXXXX");  // probation: X, P0 (full)
  EXPECT_EQ(cache.counters().evictions, 0);
  InsertEmpty(&cache, "YYYYYYYY");  // probation: Y, X, P0 -> evicts P0
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_FALSE(Hit(&cache, KeyOf(0)));
  for (int i = 1; i < 7; ++i) EXPECT_TRUE(Hit(&cache, KeyOf(i))) << i;
}

TEST(SegmentCacheTest, NeverHitStreamStaysInAQuarterAndSparesHitEntries) {
  SegmentResultCache cache(kEightEntryBudget);
  const std::string hot = "HOTHOTHO";
  InsertEmpty(&cache, hot);
  ASSERT_TRUE(Hit(&cache, hot));
  for (int i = 0; i < 100; ++i) {
    InsertEmpty(&cache, KeyOf(i));
    // Only the never-hit entries compete for probation, so the stream
    // holds at most a quarter of the budget on top of the hit entry.
    EXPECT_LE(cache.counters().bytes_used,
              static_cast<int64_t>(kEightEntryBudget / 4 + kEmptyEntryCharge))
        << i;
  }
  EXPECT_EQ(cache.counters().evictions, 98);
  EXPECT_TRUE(Hit(&cache, hot));

  // With nothing ever hit, the whole cache stays within the quarter.
  SegmentResultCache cold(kEightEntryBudget);
  for (int i = 0; i < 100; ++i) {
    InsertEmpty(&cold, KeyOf(i));
    EXPECT_LE(cold.counters().bytes_used,
              static_cast<int64_t>(kEightEntryBudget / 4))
        << i;
  }
}

TEST(SegmentCacheTest, LookupNeverEvicts) {
  // Promotions that overflow protected only demote: every entry stays
  // resident until the next Insert, so warm-entry pointers a round
  // holds stay valid across its lookups.
  SegmentResultCache cache(kEightEntryBudget);
  InsertEmpty(&cache, KeyOf(0));
  InsertEmpty(&cache, KeyOf(1));
  std::vector<const SegmentResultCache::Entry*> held;
  for (int i = 2; i < 9; ++i) {
    InsertEmpty(&cache, KeyOf(i));
    ASSERT_TRUE(Hit(&cache, KeyOf(i)));
  }
  const int64_t evictions = cache.counters().evictions;
  const int64_t entries = cache.counters().entries;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 9; ++i) {
      const std::string key = KeyOf(i);
      const SegmentResultCache::Entry* entry = cache.Lookup(
          0, IndexKind::kLinearScan, 1.0, key.data(), key.size());
      if (entry != nullptr && round == 0) held.push_back(entry);
    }
    EXPECT_EQ(cache.counters().evictions, evictions);
    EXPECT_EQ(cache.counters().entries, entries);
    EXPECT_LE(cache.counters().bytes_used,
              static_cast<int64_t>(kEightEntryBudget));
  }
  for (const SegmentResultCache::Entry* entry : held) {
    EXPECT_EQ(entry->filter_computations, 1);
  }
}

std::vector<ObjectId> Windows(int count) {
  std::vector<ObjectId> windows(static_cast<size_t>(count));
  std::iota(windows.begin(), windows.end(), 0);
  return windows;
}

TEST(SegmentCacheTest, EntryLargerThanProbationIsNotStored) {
  // A budget whose quarter is exactly a twelve-hit entry's charge. A
  // 16-hit entry fits the whole budget but not probation, where every
  // entry must start, so it is not stored.
  const std::string key = "SEGMENTA";
  const auto charge = [&](int hits) {
    return SegmentResultCache::EntryCharge(key.size(),
                                           MakeEntry(Windows(hits), 9));
  };
  const size_t budget = 4 * charge(12);
  ASSERT_GT(charge(16), budget / 4);
  ASSERT_LE(charge(16), budget);
  SegmentResultCache cache(budget);
  std::vector<ObjectId> hits = Windows(16);
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry(hits, 9));
  EXPECT_FALSE(Hit(&cache, key));
  EXPECT_EQ(cache.counters().entries, 0);
  EXPECT_EQ(cache.counters().bytes_used, 0);
  EXPECT_EQ(cache.counters().evictions, 0);
  // One hit fewer is still over the quarter.
  hits.pop_back();
  ASSERT_GT(charge(15), budget / 4);
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry(hits, 9));
  EXPECT_EQ(cache.counters().entries, 0);
  // Twelve hits fit.
  hits.resize(12);
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry(hits, 9));
  EXPECT_TRUE(Hit(&cache, key));
  EXPECT_EQ(cache.counters().bytes_used, static_cast<int64_t>(charge(12)));
}

// Heap bytes in use (arena chunks plus mmapped blocks), or 0 where the
// allocator does not report them.
size_t HeapInUse() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(SegmentCacheTest, EntryChargeCoversTheHeapAnEntryOccupies) {
  // The budget bounds memory only if no entry occupies more heap than it
  // is charged. Keys are one 22-element segment of each workload's
  // element type (char, double, 2-D point); hit lists are empty, one
  // hit, and sixteen hits.
  constexpr int kEntries = 2000;
  for (const size_t key_bytes : {size_t{20}, size_t{176}, size_t{352}}) {
    for (const int hits : {0, 1, 16}) {
      std::vector<std::string> keys;
      for (int i = 0; i < kEntries; ++i) {
        std::string key(key_bytes, 'k');
        std::memcpy(key.data(), &i, sizeof(i));
        keys.push_back(std::move(key));
      }
      SegmentResultCache cache(size_t{1} << 30);
      const size_t before = HeapInUse();
      for (const std::string& key : keys) {
        cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
                     MakeEntry(Windows(hits), 1));
      }
      const size_t after = HeapInUse();
      if (after <= before) {
        GTEST_SKIP() << "the allocator reports no heap growth";
      }
      const size_t charge =
          SegmentResultCache::EntryCharge(key_bytes, MakeEntry(Windows(hits), 1));
      ASSERT_EQ(cache.counters().entries, kEntries);
      EXPECT_EQ(cache.counters().bytes_used,
                static_cast<int64_t>(kEntries * charge));
      const double per_entry =
          static_cast<double>(after - before) / kEntries;
      EXPECT_LE(per_entry, static_cast<double>(charge))
          << "key " << key_bytes << " B, " << hits << " hits";
    }
  }
}

TEST(SegmentCacheTest, OversizedEntryIsNotStored) {
  SegmentResultCache cache(32);  // smaller than any entry's overhead
  const std::string key = "SEGMENTA";
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1, 2, 3}, 9));
  EXPECT_EQ(cache.Lookup(0, IndexKind::kLinearScan, 1.0, key.data(), key.size()),
            nullptr);
  EXPECT_EQ(cache.counters().entries, 0);
  EXPECT_EQ(cache.counters().bytes_used, 0);
  EXPECT_EQ(cache.counters().evictions, 0);
}

TEST(SegmentCacheTest, ReinsertingAKeyRefreshesTheEntryInPlace) {
  SegmentResultCache cache(1 << 20);
  const std::string key = "SEGMENTA";
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1}, 10));
  cache.Insert(0, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1, 2, 3}, 10));
  const SegmentResultCache::Entry* entry =
      cache.Lookup(0, IndexKind::kLinearScan, 1.0, key.data(), key.size());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->windows, (std::vector<ObjectId>{1, 2, 3}));
  EXPECT_EQ(cache.counters().entries, 1);
}

TEST(SegmentCacheTest, EpochIsPartOfTheKey) {
  // Live ingest correctness: an entry produced at one epoch must be
  // invisible at every other — the hit set AND the billed stand-alone
  // cost both change across epochs (appended/retired windows, delta scan
  // vs merged base), so a cross-epoch hit would be silently wrong.
  SegmentResultCache cache(1 << 20);
  const std::string key = "SEGMENTA";
  cache.Insert(3, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1, 2}, 7));
  EXPECT_EQ(cache.Lookup(2, IndexKind::kLinearScan, 1.0, key.data(),
                         key.size()),
            nullptr);
  EXPECT_EQ(cache.Lookup(4, IndexKind::kLinearScan, 1.0, key.data(),
                         key.size()),
            nullptr);
  const SegmentResultCache::Entry* entry =
      cache.Lookup(3, IndexKind::kLinearScan, 1.0, key.data(), key.size());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->filter_computations, 7);
  // Both epochs' entries coexist (distinct keys), each hit by its own.
  cache.Insert(4, IndexKind::kLinearScan, 1.0, key.data(), key.size(),
               MakeEntry({1, 2, 3}, 9));
  EXPECT_EQ(cache.counters().entries, 2);
  EXPECT_EQ(cache.Lookup(4, IndexKind::kLinearScan, 1.0, key.data(),
                         key.size())
                ->filter_computations,
            9);
}

TEST(SegmentCacheTest, SweepDeadEpochsEvictsOnlyDeadEntriesBounded) {
  SegmentResultCache cache(1 << 20);
  const std::string a = "AAAAAAAA";
  const std::string b = "BBBBBBBB";
  const std::string c = "CCCCCCCC";
  cache.Insert(1, IndexKind::kLinearScan, 1.0, a.data(), a.size(),
               MakeEntry({}, 1));
  cache.Insert(1, IndexKind::kLinearScan, 1.0, b.data(), b.size(),
               MakeEntry({}, 2));
  cache.Insert(2, IndexKind::kLinearScan, 1.0, c.data(), c.size(),
               MakeEntry({}, 3));

  // Bounded: max_scan = 1 looks only at the LRU tail (epoch 1's "A").
  EXPECT_EQ(cache.SweepDeadEpochs(/*live_epoch=*/2, /*max_scan=*/1), 1u);
  EXPECT_EQ(cache.counters().entries, 2);
  // A full sweep reclaims the remaining dead entry and keeps the live one.
  EXPECT_EQ(cache.SweepDeadEpochs(/*live_epoch=*/2, /*max_scan=*/100), 1u);
  EXPECT_EQ(cache.counters().entries, 1);
  EXPECT_NE(cache.Lookup(2, IndexKind::kLinearScan, 1.0, c.data(), c.size()),
            nullptr);
  EXPECT_EQ(cache.counters().evictions, 2);
  EXPECT_EQ(cache.counters().bytes_used,
            static_cast<int64_t>(kEmptyEntryCharge));
  // Idempotent once everything resident is live.
  EXPECT_EQ(cache.SweepDeadEpochs(/*live_epoch=*/2, /*max_scan=*/100), 0u);
}

TEST(SegmentCacheTest, SweepDeadEpochsReclaimsBothSegments) {
  SegmentResultCache cache(kEightEntryBudget);
  // Epoch 1: two protected entries (hit) and one in probation; epoch
  // 2: one of each.
  for (int i = 0; i < 2; ++i) {
    InsertEmpty(&cache, KeyOf(i), /*epoch=*/1);
    ASSERT_TRUE(Hit(&cache, KeyOf(i), 1));
  }
  InsertEmpty(&cache, KeyOf(2), 1);
  InsertEmpty(&cache, KeyOf(3), 2);
  ASSERT_TRUE(Hit(&cache, KeyOf(3), 2));
  InsertEmpty(&cache, KeyOf(4), 2);
  EXPECT_EQ(cache.counters().entries, 5);
  EXPECT_EQ(cache.counters().evictions, 0);

  EXPECT_EQ(cache.SweepDeadEpochs(/*live_epoch=*/2, /*max_scan=*/100), 3u);
  EXPECT_EQ(cache.counters().entries, 2);
  EXPECT_EQ(cache.counters().evictions, 3);
  EXPECT_EQ(cache.counters().bytes_used,
            static_cast<int64_t>(2 * kEmptyEntryCharge));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(Hit(&cache, KeyOf(i), 1)) << i;
  EXPECT_TRUE(Hit(&cache, KeyOf(3), 2));
  EXPECT_TRUE(Hit(&cache, KeyOf(4), 2));
}

TEST(SegmentCacheTest, HashDistinguishesLongBuffersDifferingAnywhere) {
  // The word-at-a-time hash must keep full sensitivity: a flip in any
  // byte — word-aligned or in the tail — changes the hash (with the
  // memcmp equality this is about bucket quality, not correctness).
  std::string base(1027, 'x');  // non-multiple of 8: exercises the tail
  const uint64_t h0 = HashSegmentBytes(base.data(), base.size());
  for (const size_t flip : {size_t{0}, size_t{512}, base.size() - 1}) {
    std::string mutated = base;
    mutated[flip] = 'y';
    EXPECT_NE(HashSegmentBytes(mutated.data(), mutated.size()), h0)
        << "flip at " << flip;
  }
  // Length is part of the hash: a strict prefix hashes differently.
  EXPECT_NE(HashSegmentBytes(base.data(), base.size() - 1), h0);
  // Deterministic across storage locations: only the bytes matter.
  const std::string copy = base;
  EXPECT_EQ(HashSegmentBytes(copy.data(), copy.size()), h0);
}

}  // namespace
}  // namespace subseq
