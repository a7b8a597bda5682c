// On-disk snapshot format: constants, POD layout structs, and the
// checksum function shared by the writer and the reader.
//
// A snapshot file is
//
//   +--------------------+  offset 0
//   | SnapshotHeader     |  16 bytes: magic "SUBSNAP1", format version
//   +--------------------+
//   | section payload 0  |  flat POD bytes, 8-byte aligned start,
//   | (zero padding)     |  zero-filled up to the next 8-byte boundary
//   +--------------------+
//   | section payload 1  |
//   |        ...         |
//   +--------------------+  <- table_offset (8-byte aligned)
//   | SectionEntry[n]    |  64 bytes each, in append order; every entry
//   |                    |  names its payload and carries offset, size
//   |                    |  and an XXH64 checksum of the payload bytes
//   +--------------------+
//   | SnapshotFooterTail |  32 bytes: table_offset, section count,
//   +--------------------+  total file size, footer magic "SNAPFOOT"
//
// The section table lives in the *footer*, not the header, so a writer
// can stream sections of unknown size (out-of-core part-by-part
// builds) without seeking back; the per-part section offsets the
// loader needs are exactly the table entries. Encoding is canonical:
// the same logical content always produces the same bytes (no
// timestamps, zeroed padding and struct holes), so save -> load -> save
// is byte-identical — the round-trip tests rely on this.
//
// All multi-byte fields are stored in the host's little-endian byte
// order; the format targets the little-endian platforms the rest of the
// runtime-dispatched SIMD layer already assumes. The checksum of every
// section is verified at open time in BOTH load modes (eager and mmap):
// a corrupted snapshot must fail loudly at Open, never answer queries
// wrongly. Mmap mode's win is zero-copy aliasing of large arrays, not
// skipped validation.

#ifndef SUBSEQ_SNAPSHOT_FORMAT_H_
#define SUBSEQ_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace subseq {

/// First 8 bytes of every snapshot file: "SUBSNAP1" read as a
/// little-endian u64.
inline constexpr uint64_t kSnapshotMagic = 0x3150414E53425553ULL;

/// Last 8 bytes of every snapshot file: "SNAPFOOT" read as a
/// little-endian u64.
inline constexpr uint64_t kSnapshotFooterMagic = 0x544F4F4650414E53ULL;

/// Bumped on any incompatible layout change. Readers reject files with
/// a different version instead of guessing. Version 2 is the first
/// with the single partition block (metric/partitioned_index.h).
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Every section payload starts on an 8-byte boundary (so double/int64
/// arrays can be aliased directly out of the mapping) and is zero-padded
/// up to the next one.
inline constexpr size_t kSnapshotAlignment = 8;

/// Longest section name, excluding the terminating NUL.
inline constexpr size_t kSnapshotMaxSectionName = 39;

/// File prologue.
struct SnapshotHeader {
  uint64_t magic;
  uint32_t format_version;
  uint32_t reserved;  // always 0
};
static_assert(sizeof(SnapshotHeader) == 16);
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

/// One row of the footer-resident section table.
struct SectionEntry {
  char name[kSnapshotMaxSectionName + 1];  // NUL-terminated, tail zeroed
  uint64_t offset;                         // from file start, 8-aligned
  uint64_t size;                           // payload bytes, pre-padding
  uint64_t checksum;                       // XxHash64(payload, size)
};
static_assert(sizeof(SectionEntry) == 64);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// Fixed-size tail at the very end of the file; readers locate the
/// section table through it.
struct SnapshotFooterTail {
  uint64_t table_offset;
  uint64_t section_count;
  uint64_t file_size;  // must equal the actual on-disk size
  uint64_t footer_magic;
};
static_assert(sizeof(SnapshotFooterTail) == 32);
static_assert(std::is_trivially_copyable_v<SnapshotFooterTail>);

/// How SnapshotFile::Open materializes the payload bytes.
enum class SnapshotLoadMode {
  /// Read the whole file into a private heap buffer.
  kEager,
  /// mmap the file read-only; large arrays alias the mapping (zero
  /// copy, demand paging) and the OS drops clean pages under pressure.
  kMmap,
};

/// XXH64 (Yann Collet's xxHash, 64-bit variant) over `len` bytes.
/// Self-contained reimplementation — the container has no xxhash
/// package, and a checksum the reader and writer both embed must never
/// drift with an external dependency.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed = 0);

}  // namespace subseq

#endif  // SUBSEQ_SNAPSHOT_FORMAT_H_
