// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded in the benchmark's own code around each call into a
// library layer (serve, frame, metric, distance, snapshot), never inside
// the library. Each span holds a name, start, end, the id of the span
// that caused it, and the request it belongs to. Spans stay in memory
// and are written once, when the run ends. A disabled tracer records
// nothing and reads no clock, which is how the untraced run measures.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;   // -1: a root span
  int64_t request = -1;  // -1: not tied to one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double duration_ms() const { return 1e-6 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records one span for its lifetime. `name` must be a string literal.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request, int64_t parent)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.name = name;
      span_.id = tracer_->next_id_.fetch_add(1);
      span_.parent = parent;
      span_.request = request;
      span_.start_ns = tracer_->NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = tracer_->NowNs();
      tracer_->Record(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Parent id for child spans (-1 when tracing is off).
    int64_t id() const { return tracer_ == nullptr ? -1 : span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.duration_ms());
    }
    return out;
  }

  /// Writes every span as a JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                   "\"request\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   s.name, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
