// E20 — device-class diversity: per-cohort output geometry (see
// scenarios.hpp and docs/TRANSCODE.md).
#include <cmath>
#include <vector>

#include "capture/apps.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "transcode/transcode.hpp"

namespace ads::scenarios {

GeometryResult run_geometry(std::string_view workload, int per_class,
                            bool classes_on) {
  // Two content classes with opposite downscale economics: the webpage's
  // typeset text compresses superbly at native resolution but box-averages
  // into high-entropy grey, so the quarter rung keeps ~half the bytes; the
  // photographic video class barely compresses at any rung, so bytes track
  // pixel count and the quarter rung pays ~1/16.
  const std::int64_t width = workload == "webpage" ? 640 : 320;
  const std::int64_t height = workload == "webpage" ? 480 : 240;
  const transcode::OutputGeometry classes[] = {
      {},
      {1, {}, false},
      {2, {}, false},
      {1, {width / 4, height / 4, width / 2, height / 2}, false},
  };

  AppHostOptions opts;
  opts.screen_width = width;
  opts.screen_height = height;
  opts.frame_interval_us = sim_ms(100);
  SharingSession session(opts);
  AppHost& host = session.host();

  const WindowId w = host.wm().create({0, 0, width, height}, 1);
  host.capturer().attach(w, make_app(workload, width, height, 7));

  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 100'000'000;
  link.up.delay_us = 2000;
  std::vector<SharingSession::Connection*> viewers;
  for (const transcode::OutputGeometry& geom : classes) {
    for (int i = 0; i < per_class; ++i) {
      auto& conn = session.add_udp_participant({}, link);
      if (classes_on) host.set_participant_geometry(conn.id, geom);
      viewers.push_back(&conn);
    }
  }

  host.start();
  for (auto* v : viewers) v->participant->join();
  session.run_for(sim_sec(4));  // tiles load, a navigation or two lands
  host.stop();
  session.run_for(sim_sec(1));

  GeometryResult out;
  const AppHost::Stats& s = host.stats();
  const double full_viewers =
      classes_on ? per_class : static_cast<double>(viewers.size());
  out.bytes_per_viewer[0] = static_cast<double>(s.bytes_sent_full) / full_viewers;
  if (classes_on) {
    out.bytes_per_viewer[1] = static_cast<double>(s.bytes_sent_half) / per_class;
    out.bytes_per_viewer[2] = static_cast<double>(s.bytes_sent_quarter) / per_class;
    out.bytes_per_viewer[3] = static_cast<double>(s.bytes_sent_viewport) / per_class;
  }
  out.bytes_total = static_cast<double>(s.bytes_sent);
  out.cohorts = static_cast<double>(s.fanout_cohorts);
  out.encodes_unique = static_cast<double>(s.fanout_encodes_unique);
  out.frames_scaled = static_cast<double>(host.scaler().stats().frames_scaled);
  out.scaler_cache_hits = static_cast<double>(host.scaler().stats().cache_hits);

  // Per-class fidelity against the geometry-transformed truth (the codec is
  // lossless, so any divergence is a transcode-path bug, not noise).
  const Image& truth = host.capturer().last_frame();
  for (std::size_t cls = 0; cls < std::size(classes); ++cls) {
    const transcode::OutputGeometry geom =
        classes_on ? classes[cls] : transcode::OutputGeometry{};
    const Image want = transcode::scale_frame(truth, geom);
    const Image got = viewers[cls * static_cast<std::size_t>(per_class)]
                          ->participant->screen()
                          .crop(want.bounds());
    const double db = psnr(want, got);
    out.psnr[cls] = std::isfinite(db) ? db : 0.0;  // 0 = lossless
    out.diff_px[cls] = static_cast<double>(diff_pixel_count(want, got));
  }
  return out;
}

}  // namespace ads::scenarios
