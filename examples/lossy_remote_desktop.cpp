// Remote desktop over a lossy UDP path: the §4.3/§5.3 recovery machinery.
//
// One participant views a busy desktop over a WAN-like UDP link (2% loss,
// jitter). The run goes through three phases:
//   1. clean start — PLI join handshake, full refresh;
//   2. loss burst  — 15% loss; Generic NACKs repair most gaps via AH
//      retransmissions (SDP advertised retransmissions=yes);
//   3. healed tail — verify the replica converges exactly.
// A second run disables retransmissions to show the PLI-only fallback.
//
// Build & run:  ./build/examples/lossy_remote_desktop
#include <cstdio>

#include "core/session.hpp"
#include "image/metrics.hpp"

using namespace ads;

namespace {

struct RunResult {
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t plis = 0;
  std::uint64_t gaps = 0;
  std::uint64_t bytes = 0;
  std::int64_t final_diff = 0;
};

RunResult run(bool retransmissions) {
  AppHostOptions host_opts;
  host_opts.screen_width = 640;
  host_opts.screen_height = 480;
  host_opts.frame_interval_us = sim_ms(100);
  host_opts.retransmissions = retransmissions;
  SharingSession session(host_opts);
  AppHost& host = session.host();

  const WindowId editor = host.wm().create({20, 20, 400, 300}, 1);
  const WindowId movie = host.wm().create({440, 40, 160, 120}, 2);
  host.capturer().attach(editor, std::make_unique<TerminalApp>(400, 300, 5));
  host.capturer().attach(movie, std::make_unique<VideoApp>(160, 120, 6));
  host.options();

  UdpLinkConfig link;
  link.down.delay_us = 40'000;  // 40 ms one-way
  link.down.jitter_us = 10'000;
  link.down.loss = 0.02;
  link.down.bandwidth_bps = 30'000'000;
  link.down.seed = 11;
  link.up.delay_us = 40'000;

  ParticipantOptions popts;
  popts.send_nacks = retransmissions;  // per the SDP fmtp parameter
  auto& conn = session.add_udp_participant(popts, link);
  conn.participant->join();
  host.start();

  session.run_for(sim_sec(3));          // phase 1: mild loss
  conn.down_udp->set_loss(0.15);        // phase 2: loss burst
  session.run_for(sim_sec(4));
  conn.down_udp->set_loss(0.0);         // phase 3: healed
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  RunResult r;
  r.nacks = conn.participant->stats().nacks_sent;
  r.retransmissions = host.stats().retransmissions_sent;
  r.plis = conn.participant->stats().plis_sent;
  r.gaps = conn.participant->stats().gaps_skipped;
  r.bytes = host.stats().bytes_sent;
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  r.final_diff = diff_pixel_count(truth, replica);
  return r;
}

void report(const char* title, const RunResult& r) {
  std::printf("\n%s\n", title);
  std::printf("  NACKs sent by participant:   %llu\n",
              static_cast<unsigned long long>(r.nacks));
  std::printf("  retransmissions by AH:       %llu\n",
              static_cast<unsigned long long>(r.retransmissions));
  std::printf("  PLIs (join + recoveries):    %llu\n",
              static_cast<unsigned long long>(r.plis));
  std::printf("  gaps abandoned:              %llu\n",
              static_cast<unsigned long long>(r.gaps));
  std::printf("  AH bytes sent:               %llu\n",
              static_cast<unsigned long long>(r.bytes));
  std::printf("  final divergence:            %lld pixels %s\n",
              static_cast<long long>(r.final_diff),
              r.final_diff == 0 ? "(converged)" : "(NOT converged)");
}

}  // namespace

int main() {
  std::puts("Remote desktop across a lossy WAN (3s @2% loss, 4s @15%, 2s clean)");
  const RunResult with_rtx = run(/*retransmissions=*/true);
  report("retransmissions=yes (NACK repair, §5.3.2)", with_rtx);
  const RunResult without_rtx = run(/*retransmissions=*/false);
  report("retransmissions=no (PLI-only recovery, §5.3.1)", without_rtx);

  std::printf("\nNACK repair: %llu PLIs and %.2fx the AH bytes of PLI-only "
              "recovery (%llu PLIs).\n",
              static_cast<unsigned long long>(with_rtx.plis),
              static_cast<double>(with_rtx.bytes) /
                  static_cast<double>(without_rtx.bytes),
              static_cast<unsigned long long>(without_rtx.plis));
  if (with_rtx.plis > without_rtx.plis || with_rtx.bytes > without_rtx.bytes) {
    std::puts("NACK repair should localise recovery and save full-screen "
              "refreshes; on this link\nit costs more. Known cause: the "
              "participant re-arms its NACK every 15 ms\nwhatever the RTT, so "
              "at 80 ms RTT a sequence escalates to a PLI before its\nfirst "
              "repair can arrive (ROADMAP.md, item 3).");
  } else {
    std::puts("NACK repair localised recovery and saved full-screen refreshes.");
  }
  return (with_rtx.final_diff == 0 && without_rtx.final_diff == 0) ? 0 : 1;
}
