// E23 — self-healing relay trees: subtree blackout and resync cost (see
// scenarios.hpp). The virtual clock makes every window exact:
//
//   blackout — crash instant -> first media packet at the leaf viewer
//   detect   — upstream silence span when the watchdog declared death
//   resync   — adoption -> first post-epoch keyframe packet forwarded
//   identity — crash instant -> leaf replica pixel-identical to the direct
//              viewer's (and to the AH truth frame)
#include <memory>

#include "capture/apps.hpp"
#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "rtp/rtcp.hpp"
#include "scenarios/scenarios.hpp"
#include "telemetry/export.hpp"

namespace ads::scenarios {

FailoverResult run_relay_failover(std::uint64_t seed) {
  constexpr SimTime kTick = FailoverResult::kTick;
  constexpr SimTime kCrashAt = FailoverResult::kCrashAt;
  constexpr SimTime kSettleWindow = sim_sec(5);
  AppHostOptions hopts;
  hopts.screen_width = 320;
  hopts.screen_height = 240;
  hopts.frame_interval_us = kTick;
  SharingSession session(hopts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

  relay::RelayOptions ropts;
  ropts.report_interval_us = sim_ms(200);
  ropts.nack_flush_us = sim_ms(5);
  ropts.nack_holdoff_us = sim_ms(300);
  ropts.upstream_timeout_us = sim_ms(500);
  ropts.probe_interval_us = sim_ms(100);
  ropts.probe_count = 2;
  ropts.seed = 0xE23 ^ seed;
  auto& r1 = session.add_relay(ropts);
  auto& r2 = session.add_relay_child(r1, ropts);
  auto& r3 = session.add_relay_child(r2, ropts);

  ParticipantOptions popts;
  popts.screen_width = 320;
  popts.screen_height = 240;
  auto& leaf = session.add_relay_viewer(r3, popts);
  auto& direct = session.add_udp_participant(popts);
  direct.participant->join();
  PictureLossIndication pli;
  host.on_uplink_packet(r1.upstream_id, pli.serialize());

  // The scripted fault: r2 dies cold at kCrashAt and never restarts — the
  // subtree's only way back is the failover ladder.
  chaos::FaultSchedule faults(session.loop(), seed, &session.telemetry());
  faults.relay_crash(kCrashAt, sim_ms(1),
                     [&session, &r2] { session.crash_relay(r2); });

  // Blackout probe: from the crash instant, poll the leaf's packet counter
  // every 10ms and record the first arrival after the silence.
  FailoverResult out;
  std::uint64_t packets_at_crash = 0;
  session.loop().at(kCrashAt, [&] {
    packets_at_crash = leaf.participant->stats().rtp_packets;
  });
  for (SimTime t = kCrashAt + sim_ms(10); t <= kCrashAt + kSettleWindow;
       t += sim_ms(10)) {
    session.loop().at(t, [&, t] {
      if (out.media_resumed) return;
      if (leaf.participant->stats().rtp_packets > packets_at_crash) {
        out.media_resumed = true;
        out.blackout_us = t - kCrashAt;
      }
    });
  }
  // Identity probe: once per tick, late enough in the tick (90 of 100ms)
  // that the frame has crossed every 20ms relay hop; the leaf replica must
  // match both the direct viewer and the AH truth frame.
  for (SimTime t = kCrashAt + kTick; t <= kCrashAt + kSettleWindow; t += kTick) {
    const SimTime probe = ((t / kTick) * kTick) + kTick - sim_ms(10);
    session.loop().at(probe, [&, probe] {
      if (out.converged) return;
      const Image& truth = host.capturer().last_frame();
      const Rect view{0, 0, truth.width(), truth.height()};
      const Image leaf_img = leaf.participant->screen().crop(view);
      const Image direct_img = direct.participant->screen().crop(view);
      if (diff_pixel_count(truth, leaf_img) == 0 &&
          diff_pixel_count(leaf_img, direct_img) == 0) {
        out.converged = true;
        out.identity_us = probe - kCrashAt;
      }
    });
  }

  host.start();
  session.loop().run_until(kCrashAt + kSettleWindow + kTick);
  host.stop();
  // Drain in flight but stay inside the watchdog grace period, or the
  // stopped AH would trigger a second (spurious) round of failovers.
  session.run_for(sim_ms(300));

  const Image& truth = host.capturer().last_frame();
  const Rect view{0, 0, truth.width(), truth.height()};
  out.leaf_direct_diff_px = static_cast<std::uint64_t>(
      diff_pixel_count(leaf.participant->screen().crop(view),
                       direct.participant->screen().crop(view)));
  out.detect_us = r3.node->last_detect_latency_us();
  out.resync_us = r3.node->last_resync_duration_us();
  out.leaf = leaf.participant->stats();
  const relay::RelayNode::Stats& rs = r3.node->stats();
  out.failover_lost_packets = rs.failover_lost_packets;
  out.cache_dropped = rs.cache_dropped;
  out.frozen_drops = rs.frozen_drops;
  out.failovers = session.relay_failovers();
  out.telemetry_json = telemetry::to_json(session.telemetry().snapshot());
  return out;
}

}  // namespace ads::scenarios
