// E22 — cascaded relay tier scale-out (ads::relay).
//
// One AH feeds a relay tree (every interior node fans out to `degree`
// children, `depth` relay levels, a constant 4 viewers per leaf relay); the
// comparison arm serves the same total viewer count directly from the AH.
// Everything is wired with in-process callbacks on the virtual clock, so
// the grid is deterministic and the two timing windows are clean:
//
//   ah_ms_per_tick    — host.tick() alone (AH-side CPU; the relay arm's AH
//                       serves exactly one participant at every grid point)
//   tier_ms_per_tick  — replaying the AH's staged views into the tree (the
//                       whole cascade's forwarding cost, relay arm only)
//
// The headline claim: AH encode work and AH payload staging stay *flat* in
// the relay arm while served viewers grow multiplicatively with degree and
// depth, and the relays themselves never copy a payload byte. Mid-run every
// viewer sends a PLI and a NACK for the newest sequence, so the report also
// carries the tier's feedback-dedup ratios (subtree PLIs collapse to one
// upstream refresh; NACKs are served from relay caches and never reach the
// AH). RelayGate.TreeKeepsAhWorkFlatWhileViewersScale asserts these
// relations between the deg1/depth1 and deg4/depth3 grid points.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace ads;

void relay_scaleout(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int degree = static_cast<int>(state.range(1));
  const bool relay_arm = state.range(2) != 0;
  scenarios::RelayTreeResult r;
  for (auto _ : state) {
    r = scenarios::run_relay_tree(depth, degree, relay_arm);
    state.SetIterationTime(r.measured_ms / 1000.0);
  }

  using S = AppHost::Stats;
  const double ticks = scenarios::RelayTreeResult::kMeasuredTicks;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  state.counters["viewers_served"] = r.viewers_served;
  state.counters["relays"] = static_cast<double>(r.relays);
  state.counters["ah_ms_per_tick"] = r.ah_ms / ticks;
  state.counters["tier_ms_per_tick"] = r.tier_ms / ticks;
  state.counters["ah_encodes_unique_per_tick"] = r.per_tick(&S::fanout_encodes_unique);
  state.counters["ah_bytes_copied_per_tick"] = r.per_tick(&S::payload_bytes_copied);
  state.counters["ah_packets_built_per_tick"] = r.per_tick(&S::packets_built);
  state.counters["ah_bytes_sent_per_tick"] = r.per_tick(&S::bytes_sent);
  state.counters["relay_payload_bytes_copied"] =
      static_cast<double>(r.relay_payload_bytes_copied);
  state.counters["relay_forwarded_packets"] =
      static_cast<double>(r.relay_forwarded_packets);
  state.counters["viewer_packets_total"] = static_cast<double>(r.viewer_packets);
  state.counters["plis_injected"] = static_cast<double>(r.plis_injected);
  state.counters["plis_at_ah"] = static_cast<double>(r.plis_at_ah);
  state.counters["pli_dedup_ratio"] = ratio(r.plis_injected, r.plis_at_ah);
  state.counters["nack_seqs_received"] = static_cast<double>(r.nack_seqs_received);
  state.counters["nack_seqs_at_ah"] = static_cast<double>(r.nack_seqs_at_ah);
  state.counters["rtx_served"] = static_cast<double>(r.rtx_served);
  state.counters["nack_dedup_ratio"] =
      ratio(r.nack_seqs_received, r.nack_seqs_at_ah ? r.nack_seqs_at_ah : 1);
  bench::record_counters(
      "relay",
      std::string("E22/relay/") + (relay_arm ? "tree" : "direct") + "/deg" +
          std::to_string(degree) + "/depth" + std::to_string(depth),
      state.counters);
}

}  // namespace

BENCHMARK(relay_scaleout)
    ->Name("E22/relay")
    ->ArgsProduct({{1, 2, 3}, {1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
