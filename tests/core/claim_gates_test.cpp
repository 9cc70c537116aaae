// Claim gates: the EXPERIMENTS.md claims that rest on deterministic bench
// counters, asserted on the same scenario functions the benches time
// (bench/scenarios) at small grid points. The counters run on the virtual
// clock, so every relation is exact, not a timing heuristic. The E19 gate
// lives in LateJoinCohort.FlashCrowdWaveSharesOneBundleEncode and E20's
// cohort arithmetic in TranscodeFlow.OneEncodePerGeometryRungCohortPerTick.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "scenarios/scenarios.hpp"

namespace ads {
namespace {

using S = AppHost::Stats;

// E17: one cohort encodes each band once, the other N - 1 members' band
// requests are served from that encode, and each cohort band stream is
// serialised once, so bytes staged and streams built per tick are flat in N.
TEST(FanoutGate, UniformBroadcastSharesEveryBandAndStagesFlatInN) {
  constexpr double bands = scenarios::BroadcastResult::kBandsPerFrame;
  std::map<int, scenarios::BroadcastResult> uniform;
  for (const int n : {4, 16}) {
    for (const bool spread : {false, true}) {
      const scenarios::BroadcastResult r = scenarios::run_broadcast(n, spread);
      // Fan-out invariant: unique encodes never exceed cohorts x bands.
      EXPECT_LE(r.per_tick(&S::fanout_encodes_unique),
                r.per_tick(&S::fanout_cohorts) * bands + 1e-9)
          << n << " spread " << spread;
      if (!spread) uniform[n] = r;
    }
    const scenarios::BroadcastResult& c = uniform[n];
    EXPECT_EQ(c.per_tick(&S::fanout_encodes_unique),
              c.per_tick(&S::fanout_cohorts) * bands)
        << n;
    EXPECT_EQ(c.per_tick(&S::fanout_encodes_shared), (n - 1) * bands) << n;
    EXPECT_GT(c.per_tick(&S::payload_bytes_copied), 0) << n;
    // Every data packet is assembled as a header-plus-view.
    EXPECT_GT(c.per_tick(&S::packets_built), 0) << n;
  }
  for (const auto key : {&S::payload_bytes_copied, &S::band_streams_built}) {
    EXPECT_EQ(uniform[4].per_tick(key), uniform[16].per_tick(key));
  }
}

// E20: on the photographic workload a quarter-rung viewer costs at most 30%
// of a full-resolution viewer's bytes, and every class decodes byte-exact.
TEST(TranscodeGate, QuarterRungCostsAtMostThirtyPercentOnVideo) {
  const scenarios::GeometryResult v = scenarios::run_geometry("video", 2, true);
  const double full = v.bytes_per_viewer[0];
  const double quarter = v.bytes_per_viewer[2];
  EXPECT_GT(full, 0);
  EXPECT_GT(quarter, 0);
  EXPECT_LE(quarter, 0.30 * full);
  for (std::size_t cls = 0; cls < std::size(scenarios::kDeviceClasses); ++cls) {
    EXPECT_EQ(v.diff_px[cls], 0) << scenarios::kDeviceClasses[cls];
  }
}

// E22: AH-side work does not move while served viewers scale 4 -> 64 (the
// AH serves one relay root), the relays forward without staging a payload
// byte, and subtree feedback collapses before it reaches the AH.
TEST(RelayGate, TreeKeepsAhWorkFlatWhileViewersScale) {
  const scenarios::RelayTreeResult small = scenarios::run_relay_tree(1, 1, true);
  const scenarios::RelayTreeResult big = scenarios::run_relay_tree(3, 4, true);
  EXPECT_EQ(big.viewers_served, 16 * small.viewers_served);
  for (const auto key : {&S::fanout_encodes_unique, &S::packets_built,
                         &S::payload_bytes_copied, &S::bytes_sent}) {
    EXPECT_LT(std::abs(big.per_tick(key) - small.per_tick(key)), 1e-9)
        << small.per_tick(key) << " vs " << big.per_tick(key);
  }
  EXPECT_EQ(small.relay_payload_bytes_copied, 0u);
  EXPECT_EQ(big.relay_payload_bytes_copied, 0u);
  // 64 viewer PLIs reach the AH as one refresh, and every NACKed sequence
  // is served from a relay cache (none reach the AH).
  EXPECT_EQ(big.plis_injected, 64u);
  EXPECT_EQ(big.plis_at_ah, 1u);
  EXPECT_EQ(big.rtx_served, 64u);
  EXPECT_EQ(big.nack_seqs_at_ah, 0u);
  // The direct arm is the oracle: its AH packet work grows ~16x between
  // the same grid points.
  const scenarios::RelayTreeResult direct = scenarios::run_relay_tree(3, 4, false);
  EXPECT_GT(direct.per_tick(&S::packets_built),
            10 * big.per_tick(&S::packets_built));
}

// E23: a depth-3 tree loses its middle relay cold mid-broadcast. The
// subtree blackout stays inside the watchdog budget (timeout 500 ms +
// 2 probes x 100 ms x (1 + 25% jitter) = 750 ms) plus one 100 ms frame
// interval of repair slack, and the leaf's decoded stream ends
// byte-identical to the direct viewer's with zero decode errors: no stale
// repair crossed the epoch.
TEST(RelayGate, FailoverBlackoutStaysInsideWatchdogBudget) {
  const scenarios::FailoverResult r = scenarios::run_relay_failover(1);
  const double budget_ms = 500 + 2 * 100 * 1.25 + 100;
  const double blackout_ms =
      r.media_resumed ? static_cast<double>(r.blackout_us) / 1000.0 : -1.0;
  const double identity_ms =
      r.converged ? static_cast<double>(r.identity_us) / 1000.0 : -1.0;
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_GT(blackout_ms, 0);
  EXPECT_LE(blackout_ms, budget_ms);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(identity_ms, budget_ms + 200);
  EXPECT_EQ(r.leaf_direct_diff_px, 0u);
  EXPECT_EQ(r.leaf.decode_errors, 0u);
  EXPECT_GT(r.cache_dropped, 0u);  // epoch hygiene: cache purged
}

}  // namespace
}  // namespace ads
