// The AH's send path through its Egress on a TCP link that accepts only
// part of each write: every packet the AH emits — media, and the RTCP
// Sender Reports sent after each frame — must reach the byte stream whole
// and in order, so the participant's RFC 4571 deframer never sees a torn
// frame.
#include <gtest/gtest.h>

#include <memory>

#include "byte_sink_transport.hpp"
#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "core/participant.hpp"
#include "image/metrics.hpp"

namespace ads {
namespace {

// Regression: Sender Reports used to be written straight to the stream,
// ahead of the bytes a partial write had left in the carry, so an SR sent
// while a frame was half written landed inside that frame. The participant
// counted a decode error and its replica stayed wrong long after the link
// recovered.
TEST(EgressFlow, SenderReportOnAPartialTcpWriteKeepsTheStreamWhole) {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.region_band_rows = 64;
  opts.frame_interval_us = sim_ms(100);
  opts.sr_interval_us = sim_ms(500);
  AppHost host(loop, opts);
  const WindowId w1 = host.wm().create({0, 0, 200, 160}, 1);
  const WindowId w2 = host.wm().create({60, 40, 240, 180}, 1);
  host.capturer().attach(w1, std::make_unique<TerminalApp>(200, 160, 5));
  host.capturer().attach(w2, std::make_unique<DocumentApp>(240, 180, 9));

  ParticipantOptions popts;
  popts.transport = ParticipantOptions::Transport::kTcp;
  popts.screen_width = 320;
  popts.screen_height = 240;
  Participant part(loop, popts);

  // The link takes at most 96 bytes per write on ticks 20..23.
  int tick_no = 0;
  host.add_participant(test::tcp_sink([&](BytesView d) {
    const std::size_t allow =
        (tick_no >= 20 && tick_no < 24) ? std::min<std::size_t>(d.size(), 96)
                                        : d.size();
    part.on_stream_bytes(d.subspan(0, allow));
    return allow;
  }));

  for (tick_no = 0; tick_no < 40; ++tick_no) {
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  EXPECT_GT(host.stats().srs_sent, 4u);
  EXPECT_GT(part.stats().srs_received, 4u);
  EXPECT_EQ(part.stats().decode_errors, 0u);
  const Image& truth = host.capturer().last_frame();
  EXPECT_EQ(diff_pixel_count(part.screen().crop(truth.bounds()), truth), 0);
}

}  // namespace
}  // namespace ads
