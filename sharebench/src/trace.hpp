// Timing primitives of the benchmark: its clocks, and an in-memory span log
// recorded around calls into the program (name, start, end, parent), kept in
// memory and written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sharebench {

/// Wall clock (steady), for spans, replayed stages and phase lengths.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, all threads. Hypervisor steal is not in
/// it, unlike wall time (see README, "Clocks").
std::int64_t process_cpu_ns();

/// CPU time of the calling thread.
std::int64_t thread_cpu_ns();

/// Spans recorded around calls into the program: name, start, end and the
/// enclosing span. Kept in memory, written out once at the end. Disabled
/// logs cost one branch per call.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  explicit SpanLog(bool enabled, std::size_t capacity = 400'000)
      : enabled_(enabled), capacity_(capacity), origin_ns_(now_ns()) {}

  bool enabled() const { return enabled_; }
  /// Open a span under the innermost open one; -1 when disabled or full.
  std::int32_t open(const char* name, std::int64_t start_ns);
  /// Close the span `open` returned.
  void close(std::int32_t id, std::int64_t end_ns);
  std::uint64_t dropped() const { return dropped_; }
  /// Write the spans as JSON lines; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t capacity_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint64_t dropped_ = 0;
};

/// Times one call on `clock` and records it as a wall-clock span when the
/// log is enabled.
class Timed {
 public:
  Timed(SpanLog& log, const char* name, std::int64_t (*clock)() = now_ns)
      : log_(log),
        clock_(clock),
        id_(log.enabled() ? log.open(name, now_ns()) : -1),
        start_(clock()) {}
  /// Elapsed nanoseconds on the clock; closes the span on the first call.
  std::int64_t stop() {
    const std::int64_t end = clock_();
    if (!stopped_ && id_ >= 0) log_.close(id_, now_ns());
    stopped_ = true;
    return end - start_;
  }
  ~Timed() {
    if (!stopped_) stop();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog& log_;
  std::int64_t (*clock_)();
  std::int32_t id_;
  std::int64_t start_;
  bool stopped_ = false;
};

}  // namespace sharebench
