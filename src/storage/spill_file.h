// SpillRun: a temporary on-disk run of encoded bytes for out-of-core
// operators — currently the grace hash join (DESIGN.md §§9, 13), which
// spills oversized build/probe partitions here and reads them back
// partition-at-a-time.
//
// A run is append-then-read: the producer appends encoded bytes, the
// consumer calls ReadAll() once, and the file is unlinked on Discard() or
// destruction. Files are named `htap-spill-<pid>-<seq>-<tag>.run` inside
// the chosen directory (DefaultSpillDir() = the system temp directory), so
// tooling can find leaks by prefix — ci.sh fails the build if any
// `htap-spill-*` file survives a bench or test run.
//
// SpillPage is the unit the grace join writes: a column slice of join keys
// plus the rows' original input indices. Payload columns never spill — the
// join is late-materializing (DESIGN.md §13), so only (index, key) pairs go
// to disk and a partition rehydrates straight into a key column, not rows.
// A page is self-delimiting; a run is a concatenation of pages.

#ifndef HTAP_STORAGE_SPILL_FILE_H_
#define HTAP_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace htap {

/// Directory spill runs are created in when the caller does not configure
/// one (DatabaseOptions::join_spill_dir / ExecContext::join_spill_dir):
/// std::filesystem::temp_directory_path(), falling back to "/tmp".
std::string DefaultSpillDir();

class SpillRun {
 public:
  SpillRun() = default;
  ~SpillRun() { Discard(); }

  SpillRun(SpillRun&& other) noexcept { *this = std::move(other); }
  SpillRun& operator=(SpillRun&& other) noexcept;
  SpillRun(const SpillRun&) = delete;
  SpillRun& operator=(const SpillRun&) = delete;

  /// Creates the backing file in `dir` (empty = DefaultSpillDir()). `tag`
  /// becomes part of the file name, e.g. "b12" for build partition 12.
  Status Open(const std::string& dir, const std::string& tag);

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  size_t bytes() const { return bytes_; }

  /// Appends raw encoded bytes to the run.
  Status Append(const std::string& bytes);

  /// Flushes and reads the whole run back. The run stays open (ReadAll may
  /// be called again), but the common pattern is ReadAll then Discard.
  Result<std::string> ReadAll();

  /// Closes and unlinks the backing file. Idempotent.
  void Discard();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  size_t bytes_ = 0;
};

/// One column slice of spilled join keys: the rows' original dense input
/// indices plus the key values, stored as one typed vector (a key column
/// has one type). NULL keys never join, so pages carry no null bitmap;
/// hashes are recomputed on rehydration via the Value::Hash-consistent
/// typed primitives.
struct SpillPage {
  std::vector<uint32_t> idx;      // original input indices, page-local order
  Type type = Type::kInt64;       // key type
  std::vector<int64_t> ints;      // type == kInt64
  std::vector<double> doubles;    // type == kDouble
  std::vector<std::string> strs;  // type == kString

  size_t rows() const { return idx.size(); }
};

/// Appends the page's binary image: row count, type byte, raw little-endian
/// fixed-width slots for idx/ints/doubles, and length-prefixed strings.
/// Pages are self-delimiting, so a run holds any number back to back.
void EncodeSpillPage(const SpillPage& page, std::string* out);

/// Decodes one page starting at *pos, advancing *pos past it. Returns false
/// on malformed input (truncated page, unknown type byte).
bool DecodeSpillPage(const std::string& in, size_t* pos, SpillPage* out);

}  // namespace htap

#endif  // HTAP_STORAGE_SPILL_FILE_H_
