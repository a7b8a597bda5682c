// Corruption-injection matrix for the snapshot reader: every byte-level
// failure mode — flipped payload bytes in every section, truncation at
// every section boundary and mid-section, a zeroed footer, wrong magic,
// wrong version, size mismatches, and table tampering — must be rejected
// at Open/Load with a precise Status (naming the section and offset
// where applicable) and must never crash. The CI snapshot job runs this
// battery under ASan/UBSan, so "never crash" is machine-checked.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/matcher.h"
#include "subseq/snapshot/format.h"
#include "subseq/snapshot/reader.h"

namespace subseq {
namespace {

// Every name carries the process id: ctest runs each test in its own
// process, in parallel, and every process's suite set-up writes, reads
// and deletes the shared corpus — under one name, a neighbour's
// tear-down could delete it mid-read.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return std::vector<uint8_t>(raw.begin(), raw.end());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Opens in both load modes; both must agree on acceptance, and failures
// must carry `expect_substring` (empty = any message).
void ExpectOpenFails(const std::string& path,
                     const std::string& expect_substring,
                     const std::string& tag) {
  SCOPED_TRACE(tag);
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
    auto opened = SnapshotFile::Open(path, mode);
    ASSERT_FALSE(opened.ok())
        << "corrupted snapshot must not open (mode "
        << (mode == SnapshotLoadMode::kEager ? "eager" : "mmap") << ")";
    if (!expect_substring.empty()) {
      EXPECT_NE(opened.status().message().find(expect_substring),
                std::string::npos)
          << "message was: " << opened.status().message();
    }
  }
}

// The shared corpus: one small PROTEINS matcher snapshot (sharded, so
// the file carries the full section-name vocabulary) plus its parsed
// footer.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ProteinGenOptions gen_options;
    gen_options.mean_length = 30;
    gen_options.seed = 21;
    ProteinGenerator gen(gen_options);
    db_ = new SequenceDatabase<char>(
        gen.GenerateDatabaseWithWindows(/*num_windows=*/40,
                                        /*window_length=*/4));
    dist_ = new LevenshteinDistance<char>();
    MatcherOptions options;
    options.lambda = 8;
    options.lambda0 = 1;
    options.index_kind = IndexKind::kReferenceNet;
    options.exec.num_shards = 2;
    path_ = new std::string(TempPath("corruption_base.snap"));
    auto matcher = SubsequenceMatcher<char>::Build(*db_, *dist_, options);
    ASSERT_TRUE(matcher.ok());
    ASSERT_TRUE(matcher.value()->SaveIndex(*path_).ok());
    bytes_ = new std::vector<uint8_t>(ReadFileBytes(*path_));
    ASSERT_GE(bytes_->size(), sizeof(SnapshotFooterTail));
  }

  // Tail() parses the corpus's last footer-sized bytes; a corpus that
  // failed to write or read must stop each test before it does.
  void SetUp() override {
    ASSERT_NE(bytes_, nullptr);
    ASSERT_GE(bytes_->size(), sizeof(SnapshotFooterTail))
        << "the corpus snapshot is shorter than its footer";
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete bytes_;
    delete path_;
    delete dist_;
    delete db_;
  }

  // Parses the footer of the pristine file.
  static SnapshotFooterTail Tail() {
    SnapshotFooterTail tail;
    std::memcpy(&tail, bytes_->data() + bytes_->size() - sizeof(tail),
                sizeof(tail));
    return tail;
  }

  static std::vector<SectionEntry> Sections() {
    const SnapshotFooterTail tail = Tail();
    std::vector<SectionEntry> entries(tail.section_count);
    std::memcpy(entries.data(), bytes_->data() + tail.table_offset,
                tail.section_count * sizeof(SectionEntry));
    return entries;
  }

  static SequenceDatabase<char>* db_;
  static LevenshteinDistance<char>* dist_;
  static std::string* path_;
  static std::vector<uint8_t>* bytes_;
};

SequenceDatabase<char>* SnapshotCorruptionTest::db_ = nullptr;
LevenshteinDistance<char>* SnapshotCorruptionTest::dist_ = nullptr;
std::string* SnapshotCorruptionTest::path_ = nullptr;
std::vector<uint8_t>* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, PristineFileOpensInBothModes) {
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
    auto opened = SnapshotFile::Open(*path_, mode);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_GT(opened.value()->sections().size(), 5u)
        << "the sharded corpus should carry the full section vocabulary";
  }
}

// Flip one byte in EVERY section's payload; each flip must be rejected
// with a checksum error naming that section and its offset.
TEST_F(SnapshotCorruptionTest, OneFlippedByteInEverySectionIsCaught) {
  const std::string mutated = TempPath("corruption_flip.snap");
  for (const SectionEntry& entry : Sections()) {
    if (entry.size == 0) continue;  // nothing to flip
    std::vector<uint8_t> copy = *bytes_;
    copy[entry.offset + entry.size / 2] ^= 0x40;
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated, "checksum mismatch",
                    std::string("section ") + entry.name);
    ExpectOpenFails(mutated, entry.name,
                    std::string("message names section ") + entry.name);
    ExpectOpenFails(mutated, "offset " + std::to_string(entry.offset),
                    std::string("message names offset of ") + entry.name);
  }
  std::remove(mutated.c_str());
}

// Truncate at every section boundary and in the middle of every
// section; every truncation loses the footer, so all must fail loudly.
TEST_F(SnapshotCorruptionTest, TruncationAtEveryBoundaryIsCaught) {
  const std::string mutated = TempPath("corruption_trunc.snap");
  std::vector<uint64_t> cut_points = {0, 1, sizeof(SnapshotHeader) - 1,
                                      sizeof(SnapshotHeader)};
  for (const SectionEntry& entry : Sections()) {
    cut_points.push_back(entry.offset);               // boundary before
    cut_points.push_back(entry.offset + entry.size);  // boundary after
    if (entry.size > 1) cut_points.push_back(entry.offset + entry.size / 2);
  }
  const SnapshotFooterTail tail = Tail();
  cut_points.push_back(tail.table_offset);       // table gone
  cut_points.push_back(bytes_->size() - 1);      // tail clipped by one
  cut_points.push_back(bytes_->size() - sizeof(SnapshotFooterTail));

  for (const uint64_t cut : cut_points) {
    ASSERT_LT(cut, bytes_->size());
    std::vector<uint8_t> copy(bytes_->begin(),
                              bytes_->begin() + static_cast<int64_t>(cut));
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated, "", "truncated at byte " + std::to_string(cut));
  }
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, ZeroedFooterTailIsCaught) {
  std::vector<uint8_t> copy = *bytes_;
  std::memset(copy.data() + copy.size() - sizeof(SnapshotFooterTail), 0,
              sizeof(SnapshotFooterTail));
  const std::string mutated = TempPath("corruption_zerofoot.snap");
  WriteFileBytes(mutated, copy);
  ExpectOpenFails(mutated, "footer magic", "zeroed footer tail");
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, WrongMagicIsCaught) {
  std::vector<uint8_t> copy = *bytes_;
  copy[0] ^= 0xFF;
  const std::string mutated = TempPath("corruption_magic.snap");
  WriteFileBytes(mutated, copy);
  ExpectOpenFails(mutated, "bad magic", "flipped header magic");
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, WrongFormatVersionIsCaught) {
  // Version 1 predates the single partition block, version 2 the cover
  // tree stored as a capped reference net; 99 is from the future.
  const std::string mutated = TempPath("corruption_version.snap");
  for (const uint32_t version : {1u, 2u, 99u}) {
    std::vector<uint8_t> copy = *bytes_;
    SnapshotHeader header;
    std::memcpy(&header, copy.data(), sizeof(header));
    header.format_version = version;
    std::memcpy(copy.data(), &header, sizeof(header));
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated,
                    "unsupported snapshot format version " +
                        std::to_string(version) +
                        " (this build reads version 3)",
                    "format version " + std::to_string(version));
  }
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageIsCaught) {
  std::vector<uint8_t> copy = *bytes_;
  copy.push_back(0xAB);  // recorded file size no longer matches
  const std::string mutated = TempPath("corruption_trailing.snap");
  WriteFileBytes(mutated, copy);
  ExpectOpenFails(mutated, "truncated", "appended garbage byte");
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, TamperedSectionTableIsCaught) {
  const std::vector<SectionEntry> entries = Sections();
  const SnapshotFooterTail tail = Tail();
  ASSERT_FALSE(entries.empty());
  const std::string mutated = TempPath("corruption_table.snap");

  // Offset pointing elsewhere: the checksum no longer matches the bytes
  // found there (or the bounds check fires first).
  {
    std::vector<uint8_t> copy = *bytes_;
    SectionEntry entry = entries[0];
    entry.offset += kSnapshotAlignment;
    std::memcpy(copy.data() + tail.table_offset, &entry, sizeof(entry));
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated, "", "section table offset tampered");
  }
  // Stored checksum tampered.
  {
    std::vector<uint8_t> copy = *bytes_;
    SectionEntry entry = entries[0];
    entry.checksum ^= 1;
    std::memcpy(copy.data() + tail.table_offset, &entry, sizeof(entry));
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated, "checksum mismatch",
                    "section table checksum tampered");
  }
  // Unterminated name.
  {
    std::vector<uint8_t> copy = *bytes_;
    SectionEntry entry = entries[0];
    std::memset(entry.name, 'x', sizeof(entry.name));
    std::memcpy(copy.data() + tail.table_offset, &entry, sizeof(entry));
    WriteFileBytes(mutated, copy);
    ExpectOpenFails(mutated, "unterminated name", "section name tampered");
  }
  std::remove(mutated.c_str());
}

// A checksum-valid file whose *contents* lie (a payload edited together
// with its recomputed checksum) must still be rejected by the loaders'
// structural validation + seeded oracle spot-checks — the layered
// defense behind the checksums.
TEST_F(SnapshotCorruptionTest, ReencodedLyingPayloadIsCaughtByLoaders) {
  // Find a per-shard edges section and shrink one stored edge distance,
  // then fix up the checksum so Open succeeds.
  const SnapshotFooterTail tail = Tail();
  std::vector<SectionEntry> entries = Sections();
  ptrdiff_t target = -1;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (std::strstr(entries[i].name, "edges") != nullptr &&
        entries[i].size >= 16) {
      target = static_cast<ptrdiff_t>(i);
      break;
    }
  }
  ASSERT_GE(target, 0) << "corpus should hold a reference-net edges section";

  std::vector<uint8_t> copy = *bytes_;
  SectionEntry entry = entries[static_cast<size_t>(target)];
  // Edge records are 16 bytes: (int32 level, int32 child, double dist).
  // Overwrite the final edge's stored distance with a wrong value.
  double lied = 1e6;
  std::memcpy(copy.data() + entry.offset + entry.size - sizeof(double),
              &lied, sizeof(double));
  entry.checksum = XxHash64(copy.data() + entry.offset, entry.size);
  std::memcpy(copy.data() + tail.table_offset +
                  static_cast<size_t>(target) * sizeof(SectionEntry),
              &entry, sizeof(entry));
  const std::string mutated = TempPath("corruption_lying.snap");
  WriteFileBytes(mutated, copy);

  // Open succeeds — the bytes are self-consistent...
  ASSERT_TRUE(SnapshotFile::Open(mutated, SnapshotLoadMode::kEager).ok());
  // ...but the load must catch the lie against the live oracle.
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 1;
  options.index_kind = IndexKind::kReferenceNet;
  options.exec.num_shards = 2;
  auto loaded =
      SubsequenceMatcher<char>::LoadIndex(*db_, *dist_, options, mutated);
  EXPECT_FALSE(loaded.ok())
      << "a checksum-consistent but lying payload must fail structural "
         "or spot-check validation";
  std::remove(mutated.c_str());
}

TEST_F(SnapshotCorruptionTest, MissingFileFailsWithIoError) {
  auto opened = SnapshotFile::Open(TempPath("does_not_exist.snap"),
                                   SnapshotLoadMode::kEager);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruptionTest, EmptyAndTinyFilesAreCaught) {
  const std::string mutated = TempPath("corruption_tiny.snap");
  for (const size_t n : {size_t{0}, size_t{1}, size_t{47}}) {
    std::vector<uint8_t> tiny(n, 0x5A);
    WriteFileBytes(mutated, tiny);
    ExpectOpenFails(mutated, "too small", std::to_string(n) + "-byte file");
  }
  std::remove(mutated.c_str());
}

}  // namespace
}  // namespace subseq
