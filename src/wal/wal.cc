#include "wal/wal.h"

#include <cstring>

#include "common/crc32c.h"

namespace htap {

namespace {

/// Appends the payload of a record with these fields to `out`; the one
/// definition of the payload format, shared by WalRecord::EncodeTo and the
/// in-place DML path.
void EncodePayload(WalRecordType type, uint64_t txn_id, uint32_t table_id,
                   Key key, CSN csn, const Row& row, std::string* out) {
  out->push_back(static_cast<char>(type));
  Value(static_cast<int64_t>(txn_id)).EncodeTo(out);
  Value(static_cast<int64_t>(table_id)).EncodeTo(out);
  Value(key).EncodeTo(out);
  Value(static_cast<int64_t>(csn)).EncodeTo(out);
  row.EncodeTo(out);
}

/// The calling thread's payload buffer: cleared per record, so its capacity
/// is reused and a record costs no allocation once the thread has logged
/// one as large.
std::string& ThreadPayloadBuffer() {
  thread_local std::string buffer;
  buffer.clear();
  return buffer;
}

}  // namespace

uint32_t WalChecksum(const char* data, size_t n) { return Crc32c(data, n); }

void WalRecord::EncodeTo(std::string* out) const {
  EncodePayload(type, txn_id, table_id, key, csn, row, out);
}

bool WalRecord::DecodeFrom(const std::string& in, size_t* pos,
                           WalRecord* out) {
  if (*pos >= in.size()) return false;
  out->type = static_cast<WalRecordType>(in[(*pos)++]);
  Value v;
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->txn_id = static_cast<uint64_t>(v.AsInt64());
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->table_id = static_cast<uint32_t>(v.AsInt64());
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->key = v.AsInt64();
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->csn = static_cast<CSN>(v.AsInt64());
  return Row::DecodeFrom(in, pos, &out->row);
}

WalWriter::WalWriter(Options options) : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "wb");
  }
}

WalWriter::~WalWriter() {
  Sync();
  if (file_) std::fclose(file_);
}

uint64_t WalWriter::Append(const WalRecord& rec) {
  std::string& payload = ThreadPayloadBuffer();
  rec.EncodeTo(&payload);
  return AppendPayload(payload);
}

uint64_t WalWriter::AppendDml(WalRecordType type, uint64_t txn_id,
                              uint32_t table_id, Key key, const Row& row) {
  std::string& payload = ThreadPayloadBuffer();
  EncodePayload(type, txn_id, table_id, key, /*csn=*/0, row, &payload);
  return AppendPayload(payload);
}

uint64_t WalWriter::AppendPayload(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = WalChecksum(payload.data(), payload.size());

  MutexLock lk(&mu_);
  const uint64_t lsn = tail_lsn_;
  char hdr[8];
  std::memcpy(hdr, &len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  buffer_.append(hdr, 8);
  buffer_.append(payload);
  tail_lsn_ += 8 + payload.size();
  return lsn;
}

Status WalWriter::Sync() {
  MutexLock lk(&mu_);
  if (buffer_.empty()) return Status::OK();
  if (file_) {
    const size_t n = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    if (n != buffer_.size()) return Status::IOError("wal short write");
    if (options_.sync_on_commit) std::fflush(file_);
  } else {
    memory_log_.append(buffer_);
  }
  flushed_lsn_ = tail_lsn_;
  buffer_.clear();
  ++sync_count_;
  return Status::OK();
}

uint64_t WalWriter::TailLsn() const {
  MutexLock lk(&mu_);
  return tail_lsn_;
}

std::string WalWriter::ContentsForTest() const {
  MutexLock lk(&mu_);
  return memory_log_ + buffer_;
}

std::vector<WalRecord> WalReader::Parse(const std::string& contents) {
  std::vector<WalRecord> out;
  size_t pos = 0;
  while (pos + 8 <= contents.size()) {
    uint32_t len, crc;
    std::memcpy(&len, contents.data() + pos, 4);
    std::memcpy(&crc, contents.data() + pos + 4, 4);
    if (pos + 8 + len > contents.size()) break;  // torn tail
    const char* payload = contents.data() + pos + 8;
    if (WalChecksum(payload, len) != crc) break;  // corrupt tail
    std::string p(payload, len);
    size_t ppos = 0;
    WalRecord rec;
    if (!WalRecord::DecodeFrom(p, &ppos, &rec)) break;
    out.push_back(std::move(rec));
    pos += 8 + len;
  }
  return out;
}

Result<std::vector<WalRecord>> WalReader::ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::IOError("cannot open wal file: " + path);
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  return Parse(contents);
}

}  // namespace htap
