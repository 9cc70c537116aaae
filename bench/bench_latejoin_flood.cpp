// E19 — flash-crowd late-join: checkpoint snapshot service vs naive
// per-joiner refresh (docs/LATEJOIN.md).
//
// A warm session goes static, then a join flood (chaos::kJoinFlood
// scripting, fixed seed) lands a cohort of N joiners inside one refresh
// window. Both arms measure join-to-first-frame latency per joiner and the
// AH's encode work across the wave:
//
//   * naive    — snapshots off: the default §4.4 per-joiner refresh (also
//                the bundle-budget fallback). Every joiner's PLI queues a
//                full-screen refresh through the cohort encode, so the
//                refresh bands planned across the wave grow linearly in N.
//   * snapshot — the first PLI opens the window, the cohort shares one
//                checkpoint bundle, and encoder requests stay flat in N.
//
// The content is static after warm-up, so post-warm-up encodes are refresh
// encodes only and the flat-vs-linear signal is exact, not a timing
// heuristic. LateJoinCohort.FlashCrowdWaveSharesOneBundleEncode asserts ≤1
// cohort encode per join wave on the snapshot arm and the linear
// per-joiner refresh work on the naive arm at N = 4 and 16.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace ads;

void run_bench(benchmark::State& state, bool snapshot_on) {
  const int cohort = static_cast<int>(state.range(0));
  scenarios::FloodResult r;
  for (auto _ : state) r = scenarios::run_flood(cohort, snapshot_on);
  state.counters["cohort"] = cohort;
  state.counters["joined"] = r.joined;
  state.counters["join_ms_mean"] = r.join_ms_mean;
  state.counters["join_ms_max"] = r.join_ms_max;
  state.counters["bands_encoded_wave"] = static_cast<double>(r.bands_encoded_wave);
  state.counters["bands_requested_wave"] =
      static_cast<double>(r.bands_requested_wave);
  state.counters["refresh_bands_wave"] = static_cast<double>(r.refresh_bands_wave);
  state.counters["bundles_built"] = static_cast<double>(r.snapshot.bundles_built);
  state.counters["windows_opened"] = static_cast<double>(r.snapshot.windows_opened);
  state.counters["encodes_saved"] = static_cast<double>(r.snapshot.encodes_saved);
  state.counters["shared_refreshes"] =
      static_cast<double>(r.host.join_shared_refreshes);
  state.counters["fallback_refreshes"] =
      static_cast<double>(r.host.join_fallback_refreshes);
  bench::record_counters("latejoin_flood",
                         std::string("E19/flood/") +
                             (snapshot_on ? "snapshot" : "naive") + "/" +
                             std::to_string(cohort),
                         state.counters);
}

void naive(benchmark::State& state) { run_bench(state, false); }
void snapshot(benchmark::State& state) { run_bench(state, true); }

BENCHMARK(naive)
    ->Name("E19/flood/naive")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(snapshot)
    ->Name("E19/flood/snapshot")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
