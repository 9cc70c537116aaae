#include "workloads.hpp"

#include <stdexcept>

namespace sharebench {

using ads::ContentPt;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over seed ^ salt.
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull) ^ 0xA0761D6478BD642Full;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 2;  // never 1: the session treats seed 1 as unset
}

namespace {

}  // namespace

ads::UdpLinkConfig lan_udp_link() {
  ads::UdpLinkConfig l;
  l.down.delay_us = 1000;
  l.down.bandwidth_bps = 1'000'000'000;
  l.down.queue_bytes = 8u << 20;
  l.up.delay_us = 1000;
  l.up.bandwidth_bps = 1'000'000'000;
  return l;
}

namespace {

Workload video_pane() {
  Workload w;
  w.name = "video_pane";
  w.width = 640;
  w.height = 480;
  w.windows = {{"video", {16, 16, 480, 360}}, {"terminal", {504, 16, 128, 240}}};
  w.viewers = {{Via::kUdp, ContentPt::kPng},
               {Via::kUdp, ContentPt::kPng},
               {Via::kUdp, ContentPt::kDct},
               {Via::kTcp, ContentPt::kPng}};
  w.udp_link = lan_udp_link();
  w.delay_spread_us = 100;
  w.tcp_link.down.bandwidth_bps = 1'000'000'000;
  w.tcp_link.down.delay_us = 1000;
  w.tcp_link.down.send_buffer_bytes = 8u << 20;
  w.tcp_link.up.bandwidth_bps = 1'000'000'000;
  w.tcp_link.up.delay_us = 1000;
  return w;
}

Workload office_fanout() {
  Workload w;
  w.name = "office_fanout";
  w.width = 1024;
  w.height = 768;
  w.windows = {{"terminal", {16, 16, 480, 304}},
               {"document", {16, 336, 480, 416}},
               {"webpage", {512, 16, 496, 736}}};
  // 32 direct UDP viewers: 8 at quarter geometry, 4 on DCT, 20 full PNG.
  for (int i = 0; i < 20; ++i) w.viewers.push_back({Via::kUdp, ContentPt::kPng});
  for (int i = 0; i < 8; ++i) w.viewers.push_back({Via::kUdp, ContentPt::kPng, 1});
  for (int i = 0; i < 4; ++i) w.viewers.push_back({Via::kUdp, ContentPt::kDct});
  // 8 TCP viewers on 8 Mbit/s links with a 64 KiB send buffer, so the §7
  // backlog gate skips frames during page loads.
  for (int i = 0; i < 8; ++i) w.viewers.push_back({Via::kTcp, ContentPt::kPng});
  // Depth-2 relay chain: AH -> r0 -> {r1, r2}, 12 viewers on each leaf.
  w.relays = {{-1}, {0}, {0}};
  for (int i = 0; i < 24; ++i) {
    w.viewers.push_back({Via::kRelay, ContentPt::kPng, 0, 1 + i % 2});
  }
  w.udp_link = lan_udp_link();
  w.delay_spread_us = 100;
  w.tcp_link.down.bandwidth_bps = 8'000'000;
  w.tcp_link.down.delay_us = 2000;
  w.tcp_link.down.send_buffer_bytes = 64 * 1024;
  w.tcp_link.up.bandwidth_bps = 8'000'000;
  w.tcp_link.up.delay_us = 2000;
  w.snapshot = true;
  // Each bring-up decodes 64 full desktops; three keep the run short.
  w.setup_reps = 3;
  // Drawn from the run seed, the terminal's text alone moved
  // ah_bytes_per_frame by 126-165 KB across five seeds (the terminal's
  // scroll cadence and content vary per seed); this workload is about
  // fan-out, so its apps play one script.
  w.fixed_content = true;
  return w;
}

Workload lossy_wan() {
  Workload w;
  w.name = "lossy_wan";
  w.width = 800;
  w.height = 600;
  w.windows = {{"editing", {16, 16, 440, 340}},
               {"document", {16, 372, 440, 212}},
               {"video", {472, 16, 320, 240}}};
  for (int i = 0; i < 6; ++i) w.viewers.push_back({Via::kUdp, ContentPt::kPng});
  for (int i = 0; i < 2; ++i) w.viewers.push_back({Via::kUdp, ContentPt::kDct});
  // The examples/lossy_remote_desktop link shape: 40 ms one way each
  // direction, 10 ms jitter, 30 Mbit/s, 2 % loss with a recurring 15 %
  // phase (1 s in every 5 s).
  w.udp_link.down.delay_us = 40'000;
  w.udp_link.down.jitter_us = 10'000;
  w.udp_link.down.bandwidth_bps = 30'000'000;
  w.udp_link.down.queue_bytes = 4u << 20;
  w.udp_link.up.delay_us = 40'000;
  w.udp_link.up.jitter_us = 10'000;
  w.udp_link.up.bandwidth_bps = 30'000'000;
  w.base_loss = 0.02;
  w.burst_loss = 0.15;
  w.loss_period = 50;
  w.burst_frames = 10;
  // A lossy bring-up takes 12-20 frames of a full tick each; two draws keep
  // the run's wall time within the benchmark's budget.
  w.setup_reps = 2;
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"video_pane", "office_fanout", "lossy_wan"};
}

Workload make_workload(std::string_view name) {
  if (name == "video_pane") return video_pane();
  if (name == "office_fanout") return office_fanout();
  if (name == "lossy_wan") return lossy_wan();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace sharebench
