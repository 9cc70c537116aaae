// E20 — device-class diversity: per-cohort output geometry
// (docs/TRANSCODE.md).
//
// A webpage (tiled incremental loads) or a photographic video workload
// streams to a mixed audience.
// Two arms, same viewer count:
//
//   * fullres — geometry-blind baseline: every viewer receives the host's
//               native resolution, whatever it can actually display.
//   * classes — viewers split across device classes (full, half rung,
//               quarter rung, half-rung viewport crop); each class forms
//               its own (geometry × rung) cohort and is encoded once from
//               the FrameScaler's per-tick cache.
//
// Measured per arm: bytes per viewer per device class, scaled-replica
// fidelity per class (PSNR against the box-filtered truth; 0 = lossless,
// the codec-bench convention), and the AH's encode/scale work. The
// headline acceptance: a quarter-rung viewer costs ≤ ~30% of a full-res
// viewer's bytes at identical per-class fidelity
// (TranscodeGate.QuarterRungCostsAtMostThirtyPercentOnVideo asserts it).
// The one-encode-per-(geometry × rung)-cohort arithmetic is asserted by
// TranscodeFlow.OneEncodePerGeometryRungCohortPerTick.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace ads;

constexpr const char* kWorkloads[] = {"webpage", "video"};

void run_bench(benchmark::State& state, bool classes_on) {
  const char* workload = kWorkloads[static_cast<std::size_t>(state.range(0))];
  const int per_class = static_cast<int>(state.range(1));
  scenarios::GeometryResult r;
  for (auto _ : state) r = scenarios::run_geometry(workload, per_class, classes_on);
  state.counters["per_class"] = per_class;
  for (std::size_t cls = 0; cls < std::size(scenarios::kDeviceClasses); ++cls) {
    const std::string n(scenarios::kDeviceClasses[cls]);
    state.counters["bytes_per_viewer_" + n] = r.bytes_per_viewer[cls];
    state.counters["psnr_" + n] = r.psnr[cls];
    state.counters["diff_px_" + n] = r.diff_px[cls];
  }
  state.counters["bytes_total"] = r.bytes_total;
  state.counters["cohorts"] = r.cohorts;
  state.counters["encodes_unique"] = r.encodes_unique;
  state.counters["frames_scaled"] = r.frames_scaled;
  state.counters["scaler_cache_hits"] = r.scaler_cache_hits;
  bench::record_counters("transcode",
                         std::string("E20/geometry/") + workload + "/" +
                             (classes_on ? "classes" : "fullres") + "/" +
                             std::to_string(per_class),
                         state.counters);
}

void fullres(benchmark::State& state) { run_bench(state, false); }
void classes(benchmark::State& state) { run_bench(state, true); }

BENCHMARK(fullres)
    ->Name("E20/geometry/fullres")
    ->ArgsProduct({{0, 1}, {2, 4}})  // {workload index} × {viewers per class}
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(classes)
    ->Name("E20/geometry/classes")
    ->ArgsProduct({{0, 1}, {2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
