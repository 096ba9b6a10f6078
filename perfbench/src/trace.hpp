// Span recorder of the traced run. Spans are recorded only in the
// benchmark's own code, around its calls into the library's layers: each
// has a name, a start and end on the steady clock, the span that caused it,
// and the id of the service job it belongs to (0 outside service jobs).
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // service job id, 0 when not a service job
  const char* name = "";     // static string
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const {
    return to_ns(std::chrono::steady_clock::now());
  }
  std::int64_t to_ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Thread-safe; client threads batch their spans and add them here.
  void add(const std::vector<SpanRecord>& spans);
  void add(const SpanRecord& span) { add(std::vector<SpanRecord>{span}); }

  std::vector<SpanRecord> spans() const;

  /// Write every span as one JSON document; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: opens at construction, records into the tracer on close() or
/// destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t job = 0);
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return rec_.id; }
  /// Close now and return the span's duration in seconds.
  double close();

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  bool open_ = true;
};

}  // namespace perfbench
