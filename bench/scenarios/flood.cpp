// E19 — flash-crowd late-join (see scenarios.hpp and docs/LATEJOIN.md).
#include <algorithm>
#include <memory>
#include <vector>

#include "capture/apps.hpp"
#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "scenarios/scenarios.hpp"

namespace ads::scenarios {

FloodResult run_flood(int cohort, bool snapshot_on) {
  constexpr std::int64_t kWidth = 640;
  constexpr std::int64_t kHeight = 480;
  AppHostOptions opts;
  opts.screen_width = kWidth;
  opts.screen_height = kHeight;
  opts.frame_interval_us = sim_ms(100);
  opts.snapshot.enabled = snapshot_on;
  opts.snapshot.refresh_interval_us = sim_ms(300);
  SharingSession session(opts);
  AppHost& host = session.host();

  // Static after the first paint: every post-warm-up encode is a refresh.
  const WindowId w = host.wm().create({0, 0, kWidth, kHeight}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(kWidth, kHeight, 3, 1'000'000));
  host.start();
  session.run_for(sim_sec(1));

  UdpLinkConfig link;
  link.down.delay_us = 20'000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 20'000;
  ParticipantOptions popts;
  popts.starvation_timeout_us = 0;  // the wave is scripted; no organic re-PLIs
  std::vector<SharingSession::Connection*> crowd;
  for (int i = 0; i < cohort; ++i) {
    crowd.push_back(&session.add_udp_participant(popts, link));
  }

  const telemetry::Snapshot before = session.telemetry().snapshot();

  // The flood: the whole cohort joins across a 150ms window — inside one
  // 300ms refresh window on the snapshot arm.
  std::vector<SimTime> join_at(static_cast<std::size_t>(cohort), 0);
  chaos::FaultSchedule faults(session.loop(), /*seed=*/17);
  faults.join_flood(session.loop().now(), sim_ms(150),
                    static_cast<std::size_t>(cohort), [&](std::size_t i) {
                      join_at[i] = session.loop().now();
                      crowd[i]->participant->join();
                    });
  session.run_for(sim_sec(4));
  host.stop();
  session.run_for(sim_sec(1));

  FloodResult out;
  const telemetry::Snapshot after = session.telemetry().snapshot();
  // The EncodedRegionCache already dedupes the actual codec runs, and the
  // cohort encode asks the encoder only for the distinct bands of a tick,
  // so encoder requests do not grow with joiners on either arm. The
  // per-joiner signal is the bands planned for cohort sends (unique plus
  // shared): the naive arm plans a full screen for every joiner, while the
  // snapshot arm serves the cohort from the bundle and plans none.
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  out.bands_encoded_wave = delta("encoder.bands_encoded");
  out.bands_requested_wave = delta("encoder.bands_requested");
  out.refresh_bands_wave =
      delta("fanout.encodes_unique") + delta("fanout.encodes_shared");
  out.snapshot = host.snapshot_service().stats();
  out.host = host.stats();

  // Join-to-first-frame: the refresh arrives as full-width bands; a join
  // completes when their cumulative area covers the screen.
  double sum_ms = 0;
  const Image& truth = host.capturer().last_frame();
  for (std::size_t i = 0; i < crowd.size(); ++i) {
    const Participant& p = *crowd[i]->participant;
    out.decode_errors += p.stats().decode_errors;
    if (diff_pixel_count(truth, p.screen().crop(truth.bounds())) != 0) {
      ++out.replicas_diverged;
    }
    std::int64_t covered = 0;
    for (const auto& d : crowd[i]->participant->drain_deliveries()) {
      if (d.arrived_us <= join_at[i] || d.region.width != kWidth) continue;
      covered += d.region.area();
      if (covered >= kWidth * kHeight) {
        const double ms = static_cast<double>(d.arrived_us - join_at[i]) / 1000.0;
        sum_ms += ms;
        out.join_ms_max = std::max(out.join_ms_max, ms);
        ++out.joined;
        break;
      }
    }
  }
  if (out.joined > 0) out.join_ms_mean = sum_ms / out.joined;
  return out;
}

}  // namespace ads::scenarios
