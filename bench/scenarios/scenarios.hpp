// Deterministic bench scenarios shared by the benchmark binaries and the
// tier-1 tests. Each function builds one complete session on the virtual
// clock and returns its counters; the benches time it and export the
// counters, the tests assert the claims the counters carry (EXPERIMENTS.md
// names the test case for each). Nothing here depends on Google Benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/app_host.hpp"
#include "core/participant.hpp"
#include "snapshot/snapshot.hpp"

namespace ads::scenarios {

// --- E17: shared-encode broadcast fan-out --------------------------------

/// AH counters over the measured ticks of one E17 grid point.
struct BroadcastResult {
  static constexpr int kMeasuredTicks = 8;
  static constexpr int kBandsPerFrame = 4;  ///< 240 rows / 64-row bands
  AppHost::Stats before;    ///< AH stats when the measured ticks begin
  AppHost::Stats after;     ///< ... and when they end
  double measured_ms = 0;   ///< wall time of the measured ticks

  /// Per-tick delta of one AH counter across the measured ticks.
  double per_tick(std::uint64_t AppHost::Stats::*m) const {
    return static_cast<double>(after.*m - before.*m) / kMeasuredTicks;
  }
};

/// One AH, `participants` counting endpoints, full-frame video damage on
/// 320×240 with 64-row bands, serial encode and no encoded-region cache.
/// `spread` enables adaptation and drives groups 1..3 onto different DCT
/// rungs with lossy receiver reports during warm-up.
BroadcastResult run_broadcast(int participants, bool spread);

// --- E19: flash-crowd late-join ------------------------------------------

struct FloodResult {
  int joined = 0;                   ///< joiners whose refresh covered the screen
  double join_ms_mean = -1;         ///< PLI → full-frame latency, cohort mean
  double join_ms_max = -1;
  std::uint64_t bands_encoded_wave = 0;    ///< codec runs across the wave
  std::uint64_t bands_requested_wave = 0;  ///< encoder consultations
  std::uint64_t refresh_bands_wave = 0;    ///< bands planned for cohort sends
  snapshot::SnapshotService::Stats snapshot;
  AppHost::Stats host;
  int replicas_diverged = 0;          ///< joiners not pixel-equal to the truth
  std::uint64_t decode_errors = 0;    ///< summed over the joiners
};

/// A static 640×480 session; a chaos-scripted flood lands `cohort` UDP
/// joiners inside one 150 ms span (one 300 ms refresh window). `snapshot_on`
/// selects the checkpoint-bundle arm, otherwise the §4.4 per-joiner refresh.
FloodResult run_flood(int cohort, bool snapshot_on);

// --- E20: per-cohort output geometry --------------------------------------

/// Device classes, in result order: full, half, quarter, half-rung viewport.
inline constexpr std::string_view kDeviceClasses[] = {"full", "half", "quarter",
                                                      "viewport"};

struct GeometryResult {
  double bytes_per_viewer[4] = {0, 0, 0, 0};  ///< indexed like kDeviceClasses
  double psnr[4] = {-1, -1, -1, -1};          ///< 0 = lossless
  double diff_px[4] = {0, 0, 0, 0};
  double bytes_total = 0;
  double cohorts = 0;
  double encodes_unique = 0;
  double frames_scaled = 0;
  double scaler_cache_hits = 0;
};

/// The `workload` app ("webpage" 640×480 or "video" 320×240) streamed to
/// `per_class` viewers of every device class. `classes_on` = false is the
/// geometry-blind arm: every viewer receives the native resolution.
GeometryResult run_geometry(std::string_view workload, int per_class,
                            bool classes_on);

// --- E22: cascaded relay tier scale-out -----------------------------------

struct RelayTreeResult {
  static constexpr int kMeasuredTicks = 16;
  int viewers_served = 0;
  std::uint64_t relays = 0;
  double ah_ms = 0;        ///< wall time in host.tick() over the measured ticks
  double tier_ms = 0;      ///< wall time replaying them into the tree
  double measured_ms = 0;  ///< wall time of the whole measured loop
  AppHost::Stats before;
  AppHost::Stats after;
  std::uint64_t relay_payload_bytes_copied = 0;
  std::uint64_t relay_forwarded_packets = 0;
  std::uint64_t rtx_served = 0;
  std::uint64_t nack_seqs_received = 0;
  std::uint64_t nack_seqs_at_ah = 0;
  std::uint64_t plis_injected = 0;
  std::uint64_t plis_at_ah = 0;
  std::uint64_t viewer_packets = 0;

  double per_tick(std::uint64_t AppHost::Stats::*m) const {
    return static_cast<double>(after.*m - before.*m) / kMeasuredTicks;
  }
};

/// A terminal workload fed to a relay tree (`degree` children per interior
/// node, `depth` relay levels, 4 viewers per leaf relay), or with
/// `relay_arm` = false the same viewer count served by the AH directly.
/// Mid-run every viewer sends a PLI and (relay arm) a NACK for its newest
/// sequence.
RelayTreeResult run_relay_tree(int depth, int degree, bool relay_arm);

// --- E23: relay failover blackout -----------------------------------------

struct FailoverResult {
  static constexpr SimTime kTick = sim_ms(100);
  static constexpr SimTime kCrashAt = sim_sec(2);
  SimTime blackout_us = 0;   ///< media gap at the leaf across the failover
  SimTime identity_us = 0;   ///< crash -> leaf pixel-identical to direct
  SimTime detect_us = 0;
  SimTime resync_us = 0;
  bool media_resumed = false;
  bool converged = false;
  std::uint64_t leaf_direct_diff_px = 0;  ///< final leaf-vs-direct pixel diff
  Participant::Stats leaf;
  std::uint64_t failover_lost_packets = 0;
  std::uint64_t cache_dropped = 0;
  std::uint64_t frozen_drops = 0;
  std::uint64_t failovers = 0;
  std::string telemetry_json;  ///< the session's final metrics snapshot
};

/// A depth-3 cascade (AH → r1 → r2 → r3 → leaf) next to a direct viewer;
/// r2 crashes cold at kCrashAt and never restarts. The relay watchdog
/// budget is timeout 500 ms + 2 probes × 100 ms (25 % jitter).
FailoverResult run_relay_failover(std::uint64_t seed);

}  // namespace ads::scenarios
