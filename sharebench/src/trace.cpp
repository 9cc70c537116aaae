#include "trace.hpp"

#include <time.h>

#include <cstdio>

namespace sharebench {
namespace {

std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }

std::int32_t SpanLog::open(const char* name, std::int64_t start_ns) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, start_ns - origin_ns_, 0, current_});
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::int32_t id, std::int64_t end_ns) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end_ns - origin_ns_;
  current_ = s.parent;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace sharebench
