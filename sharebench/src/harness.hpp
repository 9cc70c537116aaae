// One benchmark run of one workload: bring-up, warm-up, measured frames and
// a drain, then the output checks. Sessions are built with SharingSession
// and advanced one frame at a time with AppHost::tick() and run_for().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sharebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< wall time of the measured phase (at least)
  bool trace = false;     ///< per-layer run: wrappers, stage replay, spans
  bool smoke = false;     ///< a few frames of each phase, every check
  std::string spans_path; ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;         ///< every output check on the program passed
  std::uint64_t attempted = 0; ///< viewer sessions: join, drain, check
  std::uint64_t failed = 0;    ///< viewer sessions that did not pass
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< one line per failed check
};

RunResult run_workload(const RunConfig& cfg);

}  // namespace sharebench
