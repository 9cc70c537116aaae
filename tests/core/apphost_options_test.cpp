// AppHostOptions::validated(): impossible settings are rejected at
// construction, nonsensical-but-recoverable combinations are clamped, and
// sensible configurations pass through untouched.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/app_host.hpp"

namespace ads {
namespace {

TEST(AppHostOptions, DefaultsAreValidAndUnchanged) {
  AppHostOptions opts;
  const AppHostOptions v = AppHost::validated(opts);
  EXPECT_EQ(v.frame_interval_us, opts.frame_interval_us);
  EXPECT_EQ(v.screen_width, opts.screen_width);
  EXPECT_EQ(v.damage_tile, opts.damage_tile);
  EXPECT_EQ(v.udp_burst_bytes, opts.udp_burst_bytes);
  EXPECT_EQ(v.tcp_backlog_limit, opts.tcp_backlog_limit);
}

TEST(AppHostOptions, ZeroFrameIntervalThrows) {
  AppHostOptions opts;
  opts.frame_interval_us = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  EventLoop loop;
  EXPECT_THROW(AppHost(loop, opts), std::invalid_argument);
}

TEST(AppHostOptions, NonPositiveScreenThrows) {
  AppHostOptions opts;
  opts.screen_width = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  opts.screen_width = 640;
  opts.screen_height = -1;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
}

TEST(AppHostOptions, ZeroMtuThrows) {
  AppHostOptions opts;
  opts.mtu_payload = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  // A RegionUpdate's first fragment spends 12 bytes on its header (common
  // header + Left + Top): an MTU of 12 leaves no room for content.
  opts.mtu_payload = 12;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  opts.mtu_payload = 13;
  EXPECT_EQ(AppHost::validated(opts).mtu_payload, 13u);
}

TEST(AppHostOptions, MtuBeyondOneDatagramThrows) {
  // 12-byte RTP header + 65495 = 65507, the largest UDP payload over IPv4:
  // any larger packet fits neither a datagram nor (from 65524 on) an
  // RFC 4571 frame.
  AppHostOptions opts;
  opts.mtu_payload = 65495;
  EXPECT_EQ(AppHost::validated(opts).mtu_payload, 65495u);
  opts.mtu_payload = 65496;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  opts.mtu_payload = std::size_t{1} << 20;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
}

TEST(AppHostOptions, NonPositiveDamageTileClampsToDefault) {
  AppHostOptions opts;
  opts.damage_tile = 0;
  EXPECT_EQ(AppHost::validated(opts).damage_tile, 32);
  opts.damage_tile = -8;
  EXPECT_EQ(AppHost::validated(opts).damage_tile, 32);
}

TEST(AppHostOptions, NegativeBandRowsClampToDisabled) {
  AppHostOptions opts;
  opts.region_band_rows = -1;
  EXPECT_EQ(AppHost::validated(opts).region_band_rows, 0);
}

TEST(AppHostOptions, RateControlledBurstCoversOneMtu) {
  // A burst that cannot cover a single MTU would gate every frame forever;
  // with §4.3 rate control (or adaptation) active it is raised to the MTU.
  AppHostOptions opts;
  opts.udp_rate_bps = 1'000'000;
  opts.udp_burst_bytes = 100;
  EXPECT_EQ(AppHost::validated(opts).udp_burst_bytes, opts.mtu_payload);

  AppHostOptions adaptive;
  adaptive.adaptation.enabled = true;
  adaptive.udp_burst_bytes = 1;
  EXPECT_EQ(AppHost::validated(adaptive).udp_burst_bytes, adaptive.mtu_payload);

  // Without any rate control the tiny burst is inert and left alone.
  AppHostOptions unlimited;
  unlimited.udp_burst_bytes = 100;
  EXPECT_EQ(AppHost::validated(unlimited).udp_burst_bytes, 100u);
}

TEST(AppHostOptions, SmallTcpBacklogLimitIsPreserved) {
  // Deliberately tight §7 limits (smaller than one MTU) are a legitimate
  // configuration — validation must not second-guess them.
  AppHostOptions opts;
  opts.tcp_backlog_limit = 1024;
  EXPECT_EQ(AppHost::validated(opts).tcp_backlog_limit, 1024u);
}

TEST(AppHostOptions, AdaptationBoundsAreNormalised) {
  AppHostOptions opts;
  opts.adaptation.enabled = true;
  opts.adaptation.min_rate_bps = 8'000'000;
  opts.adaptation.max_rate_bps = 1'000'000;
  opts.adaptation.initial_rate_bps = 64'000'000;
  opts.adaptation.max_fps_divisor = 0;
  opts.adaptation.backlog_window = 0;
  const AppHostOptions v = AppHost::validated(opts);
  EXPECT_EQ(v.adaptation.min_rate_bps, 1'000'000u);
  EXPECT_EQ(v.adaptation.max_rate_bps, 8'000'000u);
  EXPECT_EQ(v.adaptation.initial_rate_bps, 8'000'000u);
  EXPECT_EQ(v.adaptation.max_fps_divisor, 1);
  EXPECT_EQ(v.adaptation.backlog_window, 1);
}

TEST(AppHostOptions, ConstructorStoresValidatedOptions) {
  EventLoop loop;
  AppHostOptions opts;
  opts.damage_tile = -1;
  opts.encode_threads = 0;
  AppHost host(loop, opts);
  EXPECT_EQ(host.options().damage_tile, 32);
}

}  // namespace
}  // namespace ads
