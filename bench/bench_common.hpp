// Shared helpers for the benchmark suite: canonical workload frames and
// small statistics utilities. Every bench uses fixed seeds so results are
// reproducible run to run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture/apps.hpp"
#include "image/image.hpp"

namespace ads::bench {

/// Accumulates named counter sets and writes them as `BENCH_<bench>.json` in
/// the working directory when the process exits, so every bench binary emits
/// machine-readable results with one schema:
///   {"bench": "<bench>", "entries": [{"name": ..., "counters": {...}}]}
/// Entries are deduplicated by name (last record wins — benchmarks may rerun
/// a case for timing stability) and serialised in sorted order so diffs
/// between runs are meaningful.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}
  ~JsonReport() { write(); }

  void record(const std::string& entry, std::map<std::string, double> counters) {
    entries_[entry] = std::move(counters);
  }

  /// Attach a telemetry snapshot (ads::telemetry::to_json output, or any
  /// pre-serialised JSON value) to the report; it lands verbatim as a final
  /// "metrics" member, so one BENCH_*.json carries both the bench's own
  /// counters and the session-wide metrics behind them.
  void set_metrics_json(std::string json) { metrics_json_ = std::move(json); }

 private:
  void write() const {
    std::ofstream out("BENCH_" + bench_ + ".json");
    if (!out) return;
    out << "{\"bench\": \"" << bench_ << "\", \"entries\": [";
    bool first_entry = true;
    for (const auto& [name, counters] : entries_) {
      if (!first_entry) out << ", ";
      first_entry = false;
      out << "{\"name\": \"" << name << "\", \"counters\": {";
      bool first_counter = true;
      for (const auto& [key, value] : counters) {
        if (!first_counter) out << ", ";
        first_counter = false;
        // JSON has no inf/nan literals; clamp to 0 (matches the "0 =
        // lossless" PSNR convention used by the codec bench).
        out << "\"" << key << "\": " << (std::isfinite(value) ? value : 0.0);
      }
      out << "}}";
    }
    out << "]";
    if (!metrics_json_.empty()) out << ", \"metrics\": " << metrics_json_;
    out << "}\n";
  }

  std::string bench_;
  std::map<std::string, std::map<std::string, double>> entries_;
  std::string metrics_json_;
};

/// The process-wide report for this bench binary. First call fixes the name.
inline JsonReport& json_report(const std::string& bench) {
  static JsonReport report(bench);
  return report;
}

/// Mirror a bench case's google-benchmark user counters into the report
/// under `entry`. Works with benchmark::UserCounters (whose Counter values
/// convert to double) without this header depending on benchmark.h.
template <typename CounterMap>
void record_counters(const std::string& bench, const std::string& entry,
                     const CounterMap& counters) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : counters) {
    out[key] = static_cast<double>(value);
  }
  json_report(bench).record(entry, std::move(out));
}

/// A frame of the named workload after `warmup_ticks` ticks.
inline Image workload_frame(std::string_view name, std::int64_t w, std::int64_t h,
                            int warmup_ticks = 12, std::uint64_t seed = 99) {
  auto app = make_app(name, w, h, seed);
  for (int t = 0; t < warmup_ticks; ++t) app->tick(static_cast<std::uint64_t>(t));
  return app->content();
}

inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace ads::bench
