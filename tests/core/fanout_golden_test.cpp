// Golden wire digests for the shared-encode broadcast fan-out: a 50-tick
// scripted session runs through the cohort path, and every participant's
// wire must match the length and 64-bit digest recorded for it. The values
// were recorded from the per-participant reference fan-out (one encode and
// one fragment stream per participant) while that path still existed; the
// cohort path produced the same values then, so the reference survives as
// data. The script exercises the paths where a shared encode could make
// participants diverge: mixed transports, a cohort-splitting codec
// override, §7 backlog skips, partial TCP writes, §4.3 rate-limited
// leftovers, pointer moves and icon changes, a mid-session PLI full
// refresh, window-manager changes, and MoveRectangle-producing scroll
// workloads.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "byte_sink_transport.hpp"
#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "rtp/rtcp.hpp"
#include "util/checksum.hpp"

namespace ads {
namespace {

constexpr int kTicks = 50;
constexpr std::size_t kViewers = 5;

struct GoldenResult {
  std::vector<Bytes> wires = std::vector<Bytes>(kViewers);
  AppHost::Stats stats;
};

/// One viewer's recorded wire: total bytes delivered and their digest.
struct WireGolden {
  std::size_t length;
  std::uint64_t digest;
};

/// CRC-32 in the high word, Adler-32 in the low word.
std::uint64_t wire_digest(const Bytes& wire) {
  return (std::uint64_t{crc32(wire)} << 32) | adler32(wire);
}

constexpr std::array<WireGolden, kViewers> kGolden = {{
    {67041, 0x03312d5ac8462ac3},  // viewer 0: healthy TCP
    {65207, 0x2cf5af935655b9be},  // viewer 1: flaky TCP
    {62998, 0x99c70176d250f6e4},  // viewer 2: UDP, mid-session PLI
    {66275, 0x4862587e85d6ea0d},  // viewer 3: UDP, DCT cohort
    {63200, 0xc3282956a7531445},  // viewer 4: UDP
}};

GoldenResult run_golden() {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  // Refill below one MTU per tick: UDP viewers hit §4.3 rate skips and
  // carry packetise leftovers across ticks.
  opts.udp_rate_bps = 80'000;
  opts.udp_burst_bytes = 16 * 1024;
  opts.region_band_rows = 64;
  opts.frame_interval_us = sim_ms(100);
  opts.sr_interval_us = sim_ms(500);
  AppHost host(loop, opts);

  const WindowId w1 = host.wm().create({0, 0, 200, 160}, 1);
  const WindowId w2 = host.wm().create({60, 40, 240, 180}, 1);
  host.capturer().attach(w1, std::make_unique<TerminalApp>(200, 160, 5));
  host.capturer().attach(w2, std::make_unique<DocumentApp>(240, 180, 9));

  GoldenResult out;
  int tick_no = 0;

  auto capture_stream = [&out](std::size_t i, BytesView data,
                               std::size_t accepted) {
    out.wires[i].insert(out.wires[i].end(), data.begin(),
                        data.begin() + static_cast<std::ptrdiff_t>(accepted));
  };

  // Viewer 0: healthy TCP.
  host.add_participant(test::tcp_sink(
      [&](BytesView d) {
        capture_stream(0, d, d.size());
        return d.size();
      },
      [] { return std::size_t{0}; }));

  // Viewer 1: flaky TCP — §7 backlog spike on ticks 10..15, partial writes
  // (stream-carry path) on ticks 20..23.
  host.add_participant(test::tcp_sink(
      [&](BytesView d) {
        const std::size_t allow =
            (tick_no >= 20 && tick_no < 24) ? std::min<std::size_t>(d.size(), 96)
                                            : d.size();
        capture_stream(1, d, allow);
        return allow;
      },
      [&tick_no] {
        return (tick_no >= 10 && tick_no < 16) ? std::size_t{1} << 20
                                               : std::size_t{0};
      }));

  // Viewers 2..4: UDP. Viewer 3 negotiates DCT — its own cohort.
  std::vector<ParticipantId> udp_ids;
  for (std::size_t i = 2; i < kViewers; ++i) {
    udp_ids.push_back(host.add_participant(
        test::udp_sink([&, i](BytesView d) { capture_stream(i, d, d.size()); })));
  }
  host.set_participant_codec(udp_ids[1], ContentPt::kDct);

  const Image icon(6, 9, Pixel{255, 0, 0, 255});
  for (tick_no = 0; tick_no < kTicks; ++tick_no) {
    if (tick_no == 2) {
      // UDP viewers late-join via PLI (§4.3).
      for (ParticipantId id : udp_ids) {
        PictureLossIndication pli;
        host.on_uplink_packet(id, pli.serialize());
      }
    }
    if (tick_no == 7) host.set_pointer({50, 60});
    if (tick_no == 20) {
      PictureLossIndication pli;  // mid-session refresh for one UDP viewer
      host.on_uplink_packet(udp_ids[0], pli.serialize());
    }
    if (tick_no == 23) host.set_pointer({80, 90}, &icon);
    if (tick_no == 31) host.set_pointer({10, 10});
    if (tick_no == 35) host.wm().move(w2, {40, 30});  // WMI resend
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  out.stats = host.stats();
  return out;
}

TEST(FanoutGolden, SharedFanoutIsByteIdenticalPerParticipant) {
  const GoldenResult shared = run_golden();

  for (std::size_t i = 0; i < kViewers; ++i) {
    EXPECT_EQ(shared.wires[i].size(), kGolden[i].length)
        << "viewer " << i << " wire length diverged";
    EXPECT_EQ(wire_digest(shared.wires[i]), kGolden[i].digest)
        << "viewer " << i << " wire bytes diverged";
  }

  // The script really exercised the interesting paths.
  EXPECT_GT(shared.stats.move_rectangles_sent, 0u);
  EXPECT_GT(shared.stats.frames_skipped_backlog, 0u);
  EXPECT_GT(shared.stats.frames_skipped_rate, 0u);
  EXPECT_GT(shared.stats.pointer_msgs_sent, 0u);
  EXPECT_GT(shared.stats.plis_received, 0u);
  // The messaging totals were recorded with the digests.
  EXPECT_EQ(shared.stats.region_updates_sent, 551u);
  EXPECT_EQ(shared.stats.move_rectangles_sent, 159u);
  EXPECT_EQ(shared.stats.rtp_packets_sent, 783u);
  EXPECT_EQ(shared.stats.bytes_sent, 322695u);

  // The cohort path actually shared work: multiple same-operating-point
  // viewers per tick, so sharing saved real encode requests.
  EXPECT_GT(shared.stats.fanout_cohorts, 0u);
  EXPECT_GT(shared.stats.fanout_encodes_shared, 0u);

  // Zero-copy invariant: each cohort band's fragment stream is serialised
  // at most once — every member's packets are views into that one buffer.
  // Streams are built lazily, so a band encoded for a cohort whose members
  // all ran out of §4.3 tokens before reaching it is never serialised at
  // all — hence <= rather than ==.
  EXPECT_GT(shared.stats.band_streams_built, 0u);
  EXPECT_LE(shared.stats.band_streams_built, shared.stats.fanout_encodes_unique);
  // Every data packet was assembled as a header-plus-view.
  EXPECT_EQ(shared.stats.packets_built, shared.stats.rtp_packets_sent);
}

}  // namespace
}  // namespace ads
