// In-memory span tracing for the traced benchmark run: one SpanBuffer per
// thread, one span per call the benchmark makes into a layer (name, start,
// end, parent span, request id), written out as Chrome trace-event JSON
// when the run ends. Nothing here locks: each buffer is touched by its own
// thread until the workers are joined.

#ifndef HTAPBENCH_TRACE_H_
#define HTAPBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace htapbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name;  // static storage or owned by the workload for the run
  int64_t start_ns;
  int64_t end_ns;
  uint64_t request;  // shared by every span of one request
  uint32_t parent;   // index in the same buffer, or kNoParent
};

class SpanBuffer {
 public:
  uint32_t Open(const char* name, uint64_t request,
                uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, NowNs(), 0, request, parent});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id) { spans_[id].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Where the spans of one request go; `spans` is null when it is untraced.
struct TraceContext {
  SpanBuffer* spans = nullptr;
  uint64_t request = 0;
  uint32_t parent = kNoParent;

  /// Opens a span and returns the context of its children.
  TraceContext Child(const char* name) const {
    if (spans == nullptr) return *this;
    return TraceContext{spans, request, spans->Open(name, request, parent)};
  }
  /// Closes the span a Child() context was opened for.
  void Close() const {
    if (spans != nullptr) spans->Close(parent);
  }
};

/// Calls `f`, recording the call as a span when `ctx` is traced.
template <typename F>
auto Traced(const TraceContext& ctx, const char* name, F&& f) {
  if (ctx.spans == nullptr) return f();
  const uint32_t id = ctx.spans->Open(name, ctx.request, ctx.parent);
  auto result = f();
  ctx.spans->Close(id);
  return result;
}

/// One thread's spans for the trace file: those that end in [from_ns, to_ns).
struct TraceThread {
  std::string name;
  const SpanBuffer* spans;
  int64_t from_ns = INT64_MIN;
  int64_t to_ns = INT64_MAX;
};

/// Writes the buffers as Chrome trace-event JSON ("X" events, one thread
/// per buffer), at most `max_events` of them. Each thread gets an equal
/// share of the cap. A thread with more spans than its share keeps every
/// k-th request whole, so that its requests stay spread over its window.
/// Returns the number written, or -1 when the file cannot be written.
inline long WriteChromeTrace(const std::string& path,
                             const std::vector<TraceThread>& threads,
                             int64_t origin_ns, size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  const size_t share =
      std::max<size_t>(1, max_events / std::max<size_t>(1, threads.size()));
  size_t written = 0;
  for (size_t t = 0; t < threads.size(); ++t) {
    const TraceThread& th = threads[t];
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 t == 0 ? "" : ",\n", t, th.name.c_str());
    const auto in_window = [&th](const Span& s) {
      return s.end_ns >= th.from_ns && s.end_ns < th.to_ns;
    };
    const auto& spans = th.spans->spans();
    const size_t n = static_cast<size_t>(
        std::count_if(spans.begin(), spans.end(), in_window));
    const size_t stride = std::max<size_t>(1, (n + share - 1) / share);
    size_t kept = 0, requests = 0;
    for (size_t i = 0; i < spans.size() && kept < share; ++i) {
      const Span& s = spans[i];
      // A thread runs one request at a time, so its spans come in runs of
      // one request id.
      if (i > 0 && s.request != spans[i - 1].request) ++requests;
      if (!in_window(s) || requests % stride != 0) continue;
      ++kept;
      ++written;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":%lld}}",
                   s.name, t, static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? static_cast<long>(written) : -1;
}

}  // namespace htapbench

#endif  // HTAPBENCH_TRACE_H_
