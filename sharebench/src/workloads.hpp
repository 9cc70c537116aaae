// The benchmark's three workloads: desktop layout, viewer mix, links and
// phase lengths. Everything seed-dependent is derived from the --seed
// argument; the program only ever sees the generated apps and links.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "codec/video_codec.hpp"
#include "core/session.hpp"

namespace sharebench {

/// How a viewer reaches the AH.
enum class Via { kUdp, kTcp, kRelay };

/// One viewer: transport, content codec and output geometry.
struct ViewerSpec {
  Via via = Via::kUdp;
  ads::ContentPt codec = ads::ContentPt::kPng;
  std::uint8_t scale_shift = 0;  ///< 1 = half per axis (quarter geometry)
  int relay = -1;                ///< index into Workload::relays (kRelay)
};

/// One scripted application window.
struct WindowSpec {
  std::string app;
  ads::Rect frame;
};

/// One relay node; parent -1 hangs it directly below the AH.
struct RelaySpec {
  int parent = -1;
};

struct Workload {
  std::string name;
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::vector<WindowSpec> windows;
  std::vector<ViewerSpec> viewers;
  std::vector<RelaySpec> relays;
  ads::UdpLinkConfig udp_link;
  ads::TcpLinkConfig tcp_link;
  /// Each link's one-way delay (both directions) is drawn from the run
  /// seed within +-delay_spread_us of the configured delay: viewers sit at
  /// different distances, and a link keeps one delay, so nothing reorders.
  ads::SimTime delay_spread_us = 0;
  bool snapshot = false;
  /// The apps play a fixed script instead of drawing their content from the
  /// run seed (links and participants still follow the seed).
  bool fixed_content = false;
  /// Downlink loss schedule of the UDP viewers: base_loss, switching to
  /// burst_loss for the first burst_frames of every loss_period frames.
  double base_loss = 0.0;
  double burst_loss = 0.0;
  int loss_period = 0;
  int burst_frames = 0;
  int setup_reps = 5;      ///< fresh bring-ups timed for setup_s
};

/// The workload named `name`; throws std::invalid_argument for an unknown
/// name.
Workload make_workload(std::string_view name);

/// Names of every workload, in the order the smoke mode runs them.
std::vector<std::string> workload_names();

/// Clean LAN link: 1 ms one way, 1 Gbit/s, a queue deep enough for a full
/// photographic frame burst.
ads::UdpLinkConfig lan_udp_link();

/// Deterministic 64-bit mix of the run seed with a per-use salt.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace sharebench
