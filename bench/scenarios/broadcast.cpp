// E17 — shared-encode broadcast fan-out (see scenarios.hpp).
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "capture/apps.hpp"
#include "rtp/rtcp.hpp"
#include "scenarios/scenarios.hpp"

namespace ads::scenarios {

BroadcastResult run_broadcast(int participants, bool spread) {
  const int warmup_ticks = spread ? 12 : 2;
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.region_band_rows = 64;  // full-frame damage -> 4 bands per tick
  opts.frame_interval_us = sim_ms(100);
  opts.encode_threads = 0;
  opts.encoded_cache_bytes = 0;
  if (spread) {
    opts.codec = ContentPt::kDct;
    opts.adaptation.enabled = true;
    opts.adaptation.decrease_holdoff_us = sim_ms(100);
  }
  AppHost host(loop, opts);
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<VideoApp>(320, 240, 5));

  std::uint64_t datagrams = 0;
  std::vector<ParticipantId> ids;
  for (int i = 0; i < participants; ++i) {
    Transport ep;
    ep.send_batch = [&datagrams](std::span<const PacketView> batch) {
      datagrams += batch.size();
      return batch.size();
    };
    ep.write = [&datagrams](std::span<const BytesView> parts) {
      ++datagrams;
      return parts.front().size();
    };
    ids.push_back(host.add_participant(std::move(ep)));
    PictureLossIndication pli;  // UDP joiners request their first frame
    host.on_uplink_packet(ids.back(), pli.serialize());
  }

  for (int t = 0; t < warmup_ticks; ++t) {
    if (spread) {
      for (int i = 0; i < participants; ++i) {
        const int rung_group = i % 4;
        if (rung_group > 0 && t < 3 * rung_group) {
          ReceiverReport rr;
          ReportBlock block;
          block.fraction_lost = 40;  // above the decrease threshold
          rr.blocks.push_back(block);
          host.on_uplink_packet(ids[static_cast<std::size_t>(i)], rr.serialize());
        }
      }
    }
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  BroadcastResult out;
  out.before = host.stats();
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < BroadcastResult::kMeasuredTicks; ++t) {
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }
  out.measured_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  out.after = host.stats();
  return out;
}

}  // namespace ads::scenarios
