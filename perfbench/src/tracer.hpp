// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded around calls into the library's public functions from
// the benchmark's own code, on the benchmark's main thread, and kept in
// memory until write() dumps them as JSON lines. Work the benchmark fans out
// to a pool is timed on the worker and added afterwards with add(). Self
// time of a span is its duration minus the part of it that its direct
// children cover (children on a pool overlap, so their union is taken).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t parent = -1;
    int64_t request = -1;  // the timed operation the span belongs to
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Totals per span name over every recorded span.
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// RAII span; a null tracer records nothing (the untraced path).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t id_ = -1;
  };

  /// Record a finished span timed elsewhere (e.g. on a pool worker), as a
  /// child of the innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  /// Start a new request: spans opened or added from now on carry its id.
  void begin_request() { ++request_; }

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] size_t size() const { return spans_.size(); }

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] int64_t ns(Clock::time_point t) const;
  int64_t open(const char* name);
  void close(int64_t id);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  int64_t request_ = -1;
};

}  // namespace perfbench
