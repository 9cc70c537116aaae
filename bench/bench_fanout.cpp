// E6 — multi-participant fan-out (draft §4.2).
//
// "The AH can share an application to TCP participants, UDP participants,
// and several multicast addresses in the same sharing session."
//
// One AH serves 1..32 participants (alternating TCP/UDP). Measured: real
// CPU time per simulated second of session (the benchmark's wall time),
// aggregate AH bytes, and per-participant convergence. This exposes the
// encode-once/send-many structure: bytes grow linearly with participants
// while encode work stays constant.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace ads;

void fanout(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));

  std::uint64_t bytes = 0;
  std::uint64_t updates = 0;
  int converged = 0;
  for (auto _ : state) {
    AppHostOptions host_opts;
    host_opts.screen_width = 320;
    host_opts.screen_height = 240;
    host_opts.frame_interval_us = sim_ms(100);
    SharingSession session(host_opts);
    AppHost& host = session.host();
    const WindowId term = host.wm().create({8, 8, 288, 208}, 1);
    host.capturer().attach(term, std::make_unique<TerminalApp>(288, 208, 5));

    for (int i = 0; i < participants; ++i) {
      if (i % 2 == 0) {
        TcpLinkConfig link;
        link.down.bandwidth_bps = 50'000'000;
        link.down.send_buffer_bytes = 2 * 1024 * 1024;
        session.add_tcp_participant({}, link);
      } else {
        UdpLinkConfig link;
        link.down.bandwidth_bps = 50'000'000;
        link.down.delay_us = 10'000;
        auto& conn = session.add_udp_participant({}, link);
        conn.participant->join();
      }
    }

    host.start();
    session.run_for(sim_sec(5));
    host.stop();
    session.run_for(sim_sec(1));

    bytes = host.stats().bytes_sent;
    updates = host.stats().region_updates_sent;
    converged = 0;
    const Image& truth = host.capturer().last_frame();
    for (const auto& conn : session.connections()) {
      const Image replica =
          conn->participant->screen().crop({0, 0, truth.width(), truth.height()});
      if (diff_pixel_count(truth, replica) == 0) ++converged;
    }
  }

  state.counters["ah_bytes_total"] = static_cast<double>(bytes);
  state.counters["ah_bytes_per_participant"] =
      static_cast<double>(bytes) / static_cast<double>(participants);
  state.counters["region_updates"] = static_cast<double>(updates);
  state.counters["participants_converged"] = converged;
  state.counters["participants"] = participants;
  bench::record_counters("fanout",
                         "E6/fanout/mixed_transports/" +
                             std::to_string(participants),
                         state.counters);
}

BENCHMARK(fanout)
    ->Name("E6/fanout/mixed_transports")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// E17 — shared-encode broadcast fan-out.
//
// One AH, N UDP endpoints, full-frame damage every tick (VideoApp): the
// encode stage dominates, so this isolates what the cohort fan-out buys.
// Grid: participants x {uniform operating point, 4-rung spread}. Encoding
// is serial (encode_threads = 0) so the per-tick wall time reads as encode
// CPU, and the encoded-region cache is off so every unique encode is a
// real codec run rather than a content-hash hit. The counters are exact:
// on the uniform arm, unique encodes are cohorts x bands per tick, the
// other N - 1 members' band requests are shared, and bytes staged and
// band streams built per tick do not move with N
// (FanoutGate.UniformBroadcastSharesEveryBandAndStagesFlatInN asserts it).
//
// The 4-rung spread drives the real closed loop: adaptation is enabled and
// groups k = 1..3 receive lossy receiver reports for 3k warmup ticks, so
// their AIMD budgets land on different quality rungs and the cohorts
// split. Everything runs on the virtual clock with fixed seeds, so every
// grid point is reproducible. The reported time is the measured ticks'.
void broadcast(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));
  const bool spread = state.range(1) != 0;
  scenarios::BroadcastResult r;
  for (auto _ : state) {
    r = scenarios::run_broadcast(participants, spread);
    state.SetIterationTime(r.measured_ms / 1000.0);
  }

  using S = AppHost::Stats;
  const double ticks = scenarios::BroadcastResult::kMeasuredTicks;
  state.counters["participants"] = participants;
  state.counters["per_tick_ms"] = r.measured_ms / ticks;
  state.counters["cohorts_per_tick"] = r.per_tick(&S::fanout_cohorts);
  state.counters["encodes_unique_per_tick"] = r.per_tick(&S::fanout_encodes_unique);
  state.counters["encodes_shared_per_tick"] = r.per_tick(&S::fanout_encodes_shared);
  state.counters["region_updates_per_tick"] = r.per_tick(&S::region_updates_sent);
  state.counters["bands_per_frame"] = scenarios::BroadcastResult::kBandsPerFrame;
  // Zero-copy datapath: payload bytes physically staged per tick (each
  // cohort band is serialised once) and packet assembly throughput over the
  // measured window.
  state.counters["bytes_copied_per_tick"] = r.per_tick(&S::payload_bytes_copied);
  state.counters["packets_built_per_tick"] = r.per_tick(&S::packets_built);
  state.counters["packets_built_per_second"] =
      r.measured_ms > 0.0
          ? r.per_tick(&S::packets_built) * ticks / (r.measured_ms / 1000.0)
          : 0.0;
  state.counters["band_streams_built_per_tick"] = r.per_tick(&S::band_streams_built);
  bench::record_counters(
      "fanout",
      std::string("E17/broadcast/") + (spread ? "rung_spread/" : "uniform/") +
          std::to_string(participants),
      state.counters);
}

BENCHMARK(broadcast)
    ->Name("E17/broadcast")
    ->ArgsProduct({{1, 4, 16, 64, 256, 512}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

}  // namespace
