// E23 — self-healing relay trees: subtree blackout and resync cost.
//
// A depth-3 cascade (AH → r1 → r2 → r3 → leaf viewer) streams a terminal
// workload next to a direct AH viewer that serves as the oracle. At a
// scripted instant the middle relay crashes cold and stays down: r3's
// liveness watchdog must detect the silence, escalate through its probe
// ladder, hand the orphaned subtree to the session's failover ladder
// (re-parent under r1) and resync through the §4.4 late-join path. The
// virtual clock makes every window exact:
//
//   blackout_ms — crash instant -> first media packet at the leaf viewer
//   detect_ms   — upstream silence span when the watchdog declared death
//   resync_ms   — adoption -> first post-epoch keyframe packet forwarded
//   identity_ms — crash instant -> leaf replica pixel-identical to the
//                 direct viewer's (and to the AH truth frame)
//
// The acceptance claim, asserted by
// RelayGate.FailoverBlackoutStaysInsideWatchdogBudget: the blackout is
// bounded by the watchdog budget (timeout + probes) plus one frame interval,
// and after the failover the leaf's decoded stream is byte-identical to the
// direct viewer's with zero decode errors — no stale repair crossed the
// epoch.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace ads;

void relay_failover(benchmark::State& state) {
  const std::uint64_t seed = static_cast<std::uint64_t>(state.range(0));
  scenarios::FailoverResult r;
  for (auto _ : state) r = scenarios::run_relay_failover(seed);
  bench::json_report("relay_failover").set_metrics_json(r.telemetry_json);

  state.counters["blackout_ms"] =
      r.media_resumed ? static_cast<double>(r.blackout_us) / 1000.0 : -1.0;
  state.counters["identity_ms"] =
      r.converged ? static_cast<double>(r.identity_us) / 1000.0 : -1.0;
  state.counters["detect_ms"] = static_cast<double>(r.detect_us) / 1000.0;
  state.counters["resync_ms"] = static_cast<double>(r.resync_us) / 1000.0;
  state.counters["converged"] = r.converged ? 1 : 0;
  state.counters["leaf_direct_diff_px"] =
      static_cast<double>(r.leaf_direct_diff_px);
  state.counters["leaf_decode_errors"] = static_cast<double>(r.leaf.decode_errors);
  state.counters["leaf_rtp_packets"] = static_cast<double>(r.leaf.rtp_packets);
  state.counters["failovers"] = static_cast<double>(r.failovers);
  state.counters["failover_lost_packets"] =
      static_cast<double>(r.failover_lost_packets);
  state.counters["cache_dropped"] = static_cast<double>(r.cache_dropped);
  state.counters["frozen_drops"] = static_cast<double>(r.frozen_drops);
  bench::record_counters("relay_failover",
                         "E23/failover/seed" + std::to_string(seed),
                         state.counters);
}

}  // namespace

BENCHMARK(relay_failover)
    ->Name("E23/relay_failover")
    ->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
