#include "storage/spill_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace htap {

namespace {

/// Monotonic per-process sequence number: concurrent joins (and concurrent
/// partitions within one join) never collide on a file name.
std::atomic<uint64_t> g_spill_seq{0};

}  // namespace

std::string DefaultSpillDir() {
  std::error_code ec;
  const std::filesystem::path p = std::filesystem::temp_directory_path(ec);
  if (ec || p.empty()) return "/tmp";
  return p.string();
}

SpillRun& SpillRun::operator=(SpillRun&& other) noexcept {
  if (this != &other) {
    Discard();
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::exchange(other.path_, {});
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

Status SpillRun::Open(const std::string& dir, const std::string& tag) {
  Discard();
  const std::string d = dir.empty() ? DefaultSpillDir() : dir;
  path_ = d + "/htap-spill-" +
          std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
          std::to_string(g_spill_seq.fetch_add(1, std::memory_order_relaxed)) +
          "-" + tag + ".run";
  file_ = std::fopen(path_.c_str(), "wb+");
  if (file_ == nullptr) {
    Status st = Status::IOError("cannot create spill run " + path_ + ": " +
                                std::strerror(errno));
    path_.clear();
    return st;
  }
  bytes_ = 0;
  return Status::OK();
}

Status SpillRun::Append(const std::string& bytes) {
  if (file_ == nullptr) return Status::Internal("spill run not open");
  if (bytes.empty()) return Status::OK();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
    return Status::IOError("short write to spill run " + path_);
  bytes_ += bytes.size();
  return Status::OK();
}

Result<std::string> SpillRun::ReadAll() {
  if (file_ == nullptr) return Status::Internal("spill run not open");
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0)
    return Status::IOError("cannot rewind spill run " + path_);
  std::string out;
  out.resize(bytes_);
  if (bytes_ != 0 && std::fread(out.data(), 1, bytes_, file_) != bytes_)
    return Status::IOError("short read from spill run " + path_);
  // Leave the stream positioned at the end so further Appends stay valid.
  std::fseek(file_, 0, SEEK_END);
  return out;
}

void SpillRun::Discard() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best-effort; name is unique
    path_.clear();
  }
  bytes_ = 0;
}

namespace {

template <typename T>
void PutRaw(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetRaw(const std::string& in, size_t* pos, T* out) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(out, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

void EncodeSpillPage(const SpillPage& page, std::string* out) {
  const auto n = static_cast<uint32_t>(page.idx.size());
  PutRaw(n, out);
  out->push_back(static_cast<char>(page.type));
  out->append(reinterpret_cast<const char*>(page.idx.data()),
              size_t{n} * sizeof(uint32_t));
  switch (page.type) {
    case Type::kInt64:
      out->append(reinterpret_cast<const char*>(page.ints.data()),
                  size_t{n} * sizeof(int64_t));
      break;
    case Type::kDouble:
      out->append(reinterpret_cast<const char*>(page.doubles.data()),
                  size_t{n} * sizeof(double));
      break;
    case Type::kString:
      for (const std::string& s : page.strs) {
        PutRaw(static_cast<uint32_t>(s.size()), out);
        out->append(s);
      }
      break;
  }
}

bool DecodeSpillPage(const std::string& in, size_t* pos, SpillPage* out) {
  *out = SpillPage{};
  uint32_t n = 0;
  if (!GetRaw(in, pos, &n)) return false;
  if (in.size() - *pos < 1) return false;
  const auto type_byte = static_cast<uint8_t>(in[*pos]);
  ++*pos;
  if (type_byte > static_cast<uint8_t>(Type::kString)) return false;
  out->type = static_cast<Type>(type_byte);
  if (in.size() - *pos < size_t{n} * sizeof(uint32_t)) return false;
  out->idx.resize(n);
  std::memcpy(out->idx.data(), in.data() + *pos, size_t{n} * sizeof(uint32_t));
  *pos += size_t{n} * sizeof(uint32_t);
  switch (out->type) {
    case Type::kInt64:
      if (in.size() - *pos < size_t{n} * sizeof(int64_t)) return false;
      out->ints.resize(n);
      std::memcpy(out->ints.data(), in.data() + *pos,
                  size_t{n} * sizeof(int64_t));
      *pos += size_t{n} * sizeof(int64_t);
      break;
    case Type::kDouble:
      if (in.size() - *pos < size_t{n} * sizeof(double)) return false;
      out->doubles.resize(n);
      std::memcpy(out->doubles.data(), in.data() + *pos,
                  size_t{n} * sizeof(double));
      *pos += size_t{n} * sizeof(double);
      break;
    case Type::kString:
      out->strs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t len = 0;
        if (!GetRaw(in, pos, &len) || in.size() - *pos < len) return false;
        out->strs.emplace_back(in.data() + *pos, len);
        *pos += len;
      }
      break;
  }
  return true;
}

}  // namespace htap
