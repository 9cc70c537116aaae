#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "capture/apps.hpp"
#include "codec/dct_codec.hpp"
#include "codec/png.hpp"
#include "core/session.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace sharebench {
namespace {

using ads::SharingSession;
using ads::SimTime;

/// Encode workers; with the tick thread the process runs four threads.
constexpr std::size_t kEncodeThreads = 3;
constexpr SimTime kFrameUs = 100'000;
/// Lowest PSNR a DCT replica may show after the drain (see README).
constexpr double kPsnrFloorDb = 24.0;
/// Every this many measured frames the DCT replicas are compared.
constexpr int kPsnrEvery = 5;
/// Every this many measured frames a traced run replays the codec stages
/// (all of them would take the traced video_pane run past two minutes).
constexpr int kCodecReplayEvery = 4;
/// Frames after bring-up that are not counted.
constexpr int kWarmupFrames = 5;
/// Measured frames the virtual-time and byte metrics cover: enough for 10
/// samples beyond host_frame_ms.p90.
constexpr int kWindowFrames = 100;
/// Frames a viewer may take to its first complete replica.
constexpr int kBringupLimit = 100;
/// The drain runs at least kDrainMin and at most kDrainLimit frames.
constexpr int kDrainMin = 5;
constexpr int kDrainLimit = 100;

/// Wraps a scripted app: the app is the load generator, so its painting is
/// timed and subtracted from every host time. Frozen painters stop.
class TimedPainter final : public ads::AppPainter {
 public:
  TimedPainter(std::unique_ptr<ads::AppPainter> inner, std::int64_t* paint_ns)
      : AppPainter(inner->content().width(), inner->content().height(), ads::kBlack),
        inner_(std::move(inner)),
        paint_ns_(paint_ns) {
    content_ = inner_->content();
  }
  void tick(std::uint64_t tick_index) override {
    if (frozen_) return;
    const std::int64_t t0 = process_cpu_ns();
    inner_->tick(tick_index);
    content_ = inner_->content();
    *paint_ns_ += process_cpu_ns() - t0;
  }
  std::string_view name() const override { return inner_->name(); }
  void resize(std::int64_t width, std::int64_t height) override {
    const std::int64_t t0 = process_cpu_ns();
    inner_->resize(width, height);
    content_ = inner_->content();
    *paint_ns_ += process_cpu_ns() - t0;
  }
  void freeze() { frozen_ = true; }

 private:
  std::unique_ptr<ads::AppPainter> inner_;
  std::int64_t* paint_ns_;
  bool frozen_ = false;
};

struct Viewer {
  ViewerSpec spec;
  std::size_t index = 0;
  ads::Participant* p = nullptr;
  std::int64_t busy_ns = 0;  ///< in downlink entry points, this frame
  std::uint64_t bytes = 0;   ///< downlink bytes delivered to the viewer
  ads::Region covered;       ///< union of delivered regions until complete
  std::int64_t out_area = 0;
  bool complete = false;
  SimTime complete_us = 0;
  std::set<std::uint32_t> fresh;  ///< window frames it completed an update of
};

/// Traced-mode timers around the entry points the session's own lambdas
/// call (re-installed by the benchmark, mirroring those lambdas).
struct Probes {
  std::int64_t uplink_ns = 0;
  std::uint64_t uplink_calls = 0;
  std::int64_t forward_ns = 0;
  std::uint64_t forward_calls = 0;
  std::int64_t leg_ns = 0;
  std::uint64_t leg_calls = 0;
  std::int64_t frame_ns() const { return uplink_ns + forward_ns + leg_ns; }
};

struct Live {
  std::unique_ptr<SharingSession> s;
  std::vector<TimedPainter*> painters;
  std::vector<std::unique_ptr<Viewer>> viewers;
  std::vector<SharingSession::RelayHandle*> relays;
  std::vector<ads::UdpChannel*> lossy;  ///< downlinks on the loss schedule
  double loss = 0.0;
  std::int64_t paint_ns = 0;
  std::uint64_t frame = 0;
  Probes probes;
  std::vector<double> g2g_ms;  ///< window deliveries only
  SimTime window_begin = 0;
  SimTime window_end = 0;      ///< 0 = no window open yet
  std::uint64_t drain_frames = 0;  ///< frames the drain took to converge
  double drained_psnr_min = 1e9;   ///< lowest DCT replica PSNR after the drain
  /// Benchmark bookkeeping done inside run_for (delivery accounting), kept
  /// out of every timed figure.
  std::int64_t overhead_ns = 0;
  /// Copy the next tick's frame into `history` (a PSNR sample frame).
  bool sample_next = false;
  std::map<SimTime, ads::Image> history;  ///< sampled host frames by tick time
  /// Squared error and channel-sample count per (viewer, sampled tick),
  /// over the regions a DCT viewer painted from that tick.
  std::map<std::pair<std::size_t, SimTime>, std::pair<double, double>> psnr_acc;

  ads::AppHost& host() { return s->host(); }
};

/// Fold a viewer's newly completed RegionUpdates into its completion,
/// freshness, glass-to-glass and PSNR samples. Called right after each
/// downlink call, while the painted regions still show the tick they came
/// from.
void absorb(Live& L, Viewer& v) {
  for (const auto& d : v.p->drain_deliveries()) {
    if (!v.complete) {
      v.covered.add(d.region);
      if (v.covered.area() >= v.out_area) {
        v.complete = true;
        v.complete_us = d.arrived_us;
        v.covered.clear();
      }
    }
    if (L.window_end == 0) continue;
    const SimTime sent = L.host().remoting_timestamp_to_us(d.rtp_timestamp);
    if (sent < L.window_begin || sent >= L.window_end) continue;
    L.g2g_ms.push_back(static_cast<double>(d.arrived_us - sent) / 1000.0);
    v.fresh.insert(d.rtp_timestamp);
    const auto h = L.history.find(sent);
    if (v.spec.codec != ads::ContentPt::kDct || h == L.history.end()) continue;
    const ads::Rect r = ads::intersect(d.region, h->second.bounds());
    auto& acc = L.psnr_acc[{v.index, sent}];
    acc.first += squared_error(v.p->screen().crop(r), h->second.crop(r));
    acc.second += 3.0 * static_cast<double>(r.area());
  }
}

std::unique_ptr<Live> build(const Workload& wl, std::uint64_t seed, int rep, bool traced,
                            SpanLog& log) {
  auto live = std::make_unique<Live>();
  Live* L = live.get();
  ads::AppHostOptions o;
  o.screen_width = wl.width;
  o.screen_height = wl.height;
  o.frame_interval_us = kFrameUs;
  o.encode_threads = kEncodeThreads;
  o.snapshot.enabled = wl.snapshot;
  o.seed = derive_seed(seed, 1);
  L->s = std::make_unique<SharingSession>(o);
  SharingSession& s = *L->s;
  ads::AppHost& host = s.host();

  for (std::size_t i = 0; i < wl.windows.size(); ++i) {
    const WindowSpec& w = wl.windows[i];
    const ads::WindowId id = host.wm().create(w.frame, 1);
    const std::int64_t t0 = process_cpu_ns();
    const std::uint64_t app_seed = derive_seed(wl.fixed_content ? 0 : seed, 100 + i);
    auto app = ads::make_app(w.app, w.frame.width, w.frame.height, app_seed);
    L->paint_ns += process_cpu_ns() - t0;
    auto painter = std::make_unique<TimedPainter>(std::move(app), &L->paint_ns);
    L->painters.push_back(painter.get());
    host.capturer().attach(id, std::move(painter));
  }

  // Apps follow the run seed; links and participants also follow the
  // bring-up repetition, so setup_s is a median over several loss draws.
  const std::uint64_t link_seed = derive_seed(seed, 7000 + static_cast<std::uint64_t>(rep));
  const auto link_delay = [&](SimTime base, std::uint64_t salt) {
    const SimTime spread = wl.delay_spread_us;
    return base - spread + derive_seed(link_seed, salt) % (2 * spread + 1);
  };
  const auto lan_link = [&](std::uint64_t salt) {
    ads::UdpLinkConfig link = lan_udp_link();
    link.down.seed = derive_seed(link_seed, salt);
    link.up.seed = derive_seed(link_seed, salt + 1);
    link.down.delay_us = link.up.delay_us = link_delay(link.down.delay_us, salt + 2);
    return link;
  };
  for (std::size_t i = 0; i < wl.relays.size(); ++i) {
    const int parent = wl.relays[i].parent;
    ads::UdpLinkConfig link = lan_link(500 + 4 * i);
    SharingSession::RelayHandle& r =
        parent < 0 ? s.add_relay({}, link)
                   : s.add_relay_child(*L->relays[static_cast<std::size_t>(parent)], {}, link);
    L->relays.push_back(&r);
    if (!traced) continue;
    SharingSession::RelayHandle* rp = &r;
    Probes* pr = &L->probes;
    r.down->set_receiver([rp, pr, &log](ads::Bytes data) {
      if (!rp->node) return;
      Timed t(log, "relay.on_upstream_datagram", thread_cpu_ns);
      rp->node->on_upstream_datagram(std::move(data));
      pr->forward_ns += t.stop();
      ++pr->forward_calls;
    });
    r.up->set_receiver([rp, pr, hp = &host, &log](ads::Bytes data) {
      if (rp->parent == nullptr) {
        Timed t(log, "host.on_uplink_packet", thread_cpu_ns);
        hp->on_uplink_packet(rp->upstream_id, data);
        pr->uplink_ns += t.stop();
        ++pr->uplink_calls;
      } else if (rp->parent->alive && rp->parent->node) {
        Timed t(log, "relay.on_leg_packet", thread_cpu_ns);
        rp->parent->node->on_leg_packet(rp->leg, data);
        pr->leg_ns += t.stop();
        ++pr->leg_calls;
      }
    });
  }

  for (std::size_t i = 0; i < wl.viewers.size(); ++i) {
    auto v = std::make_unique<Viewer>();
    Viewer* vp = v.get();
    v->spec = wl.viewers[i];
    v->index = i;
    const std::uint8_t shift = v->spec.scale_shift;
    const std::int64_t ow = (wl.width + (1 << shift) - 1) >> shift;
    const std::int64_t oh = (wl.height + (1 << shift) - 1) >> shift;
    v->out_area = ow * oh;
    ads::ParticipantOptions po;
    po.screen_width = ow;
    po.screen_height = oh;
    po.seed = derive_seed(link_seed, 1000 + i);
    Probes* pr = &L->probes;
    const auto time_down = [L, vp, &log](auto&& entry, ads::Bytes& data) {
      vp->bytes += data.size();
      const std::int64_t c0 = thread_cpu_ns();
      {
        Timed t(log, "viewer.downlink");
        entry(data);
      }
      const std::int64_t c1 = thread_cpu_ns();
      absorb(*L, *vp);
      vp->busy_ns += c1 - c0;
      L->overhead_ns += thread_cpu_ns() - c1;
    };
    if (v->spec.via == Via::kRelay) {
      ads::UdpLinkConfig link = lan_link(2000 + 4 * i);
      SharingSession::RelayViewer& rv =
          s.add_relay_viewer(*L->relays[static_cast<std::size_t>(v->spec.relay)], po, link);
      v->p = rv.participant.get();
      ads::Participant* p = v->p;
      rv.down->set_receiver([p, time_down](ads::Bytes data) {
        time_down([p](ads::Bytes& d) { p->on_datagram(d); }, data);
      });
      if (traced) {
        SharingSession::RelayViewer* rvp = &rv;
        rv.up->set_receiver([rvp, pr, &log](ads::Bytes data) {
          if (!rvp->relay->alive || !rvp->relay->node) return;
          Timed t(log, "relay.on_leg_packet", thread_cpu_ns);
          rvp->relay->node->on_leg_packet(rvp->leg, data);
          pr->leg_ns += t.stop();
          ++pr->leg_calls;
        });
      }
    } else if (v->spec.via == Via::kUdp) {
      ads::UdpLinkConfig link = wl.udp_link;
      link.down.seed = derive_seed(link_seed, 2000 + 4 * i);
      link.up.seed = derive_seed(link_seed, 2001 + 4 * i);
      link.down.delay_us = link_delay(link.down.delay_us, 2002 + 4 * i);
      link.up.delay_us = link_delay(link.up.delay_us, 2002 + 4 * i);
      link.down.loss = wl.base_loss;
      SharingSession::Connection& c = s.add_udp_participant(po, link);
      v->p = c.participant.get();
      if (wl.base_loss > 0) L->lossy.push_back(c.down_udp.get());
      ads::Participant* p = v->p;
      c.down_udp->set_receiver([p, time_down](ads::Bytes data) {
        time_down([p](ads::Bytes& d) { p->on_datagram(d); }, data);
      });
      if (traced) {
        const ads::ParticipantId id = c.id;
        c.up_udp->set_receiver([id, pr, hp = &host, &log](ads::Bytes data) {
          Timed t(log, "host.on_uplink_packet", thread_cpu_ns);
          hp->on_uplink_packet(id, data);
          pr->uplink_ns += t.stop();
          ++pr->uplink_calls;
        });
      }
      if (v->spec.codec != ads::ContentPt::kPng) host.set_participant_codec(c.id, v->spec.codec);
      if (shift != 0) host.set_participant_geometry(c.id, {shift, {}, false});
    } else {
      ads::TcpLinkConfig link = wl.tcp_link;
      link.down.delay_us = link_delay(link.down.delay_us, 2002 + 4 * i);
      link.up.delay_us = link_delay(link.up.delay_us, 2002 + 4 * i);
      SharingSession::Connection& c = s.add_tcp_participant(po, link);
      v->p = c.participant.get();
      ads::Participant* p = v->p;
      c.down_tcp->set_receiver([p, time_down](ads::Bytes data) {
        time_down([p](ads::Bytes& d) { p->on_stream_bytes(d); }, data);
      });
      if (traced) {
        const ads::ParticipantId id = c.id;
        c.up_tcp->set_receiver([id, pr, hp = &host, &log](ads::Bytes data) {
          Timed t(log, "host.on_uplink_stream", thread_cpu_ns);
          hp->on_uplink_stream(id, data);
          pr->uplink_ns += t.stop();
          ++pr->uplink_calls;
        });
      }
      if (v->spec.codec != ads::ContentPt::kPng) host.set_participant_codec(c.id, v->spec.codec);
      if (shift != 0) host.set_participant_geometry(c.id, {shift, {}, false});
    }
    L->viewers.push_back(std::move(v));
  }
  L->loss = wl.base_loss;
  for (auto& v : L->viewers) {
    if (v->spec.via != Via::kTcp) v->p->join();
  }
  return live;
}

/// Process CPU time of one frame's two program calls.
struct FrameTimes {
  std::int64_t tick_ns = 0;  ///< AppHost::tick, painting excluded
  std::int64_t run_ns = 0;   ///< SharingSession::run_for, bookkeeping excluded
};

/// Advance one frame: loss schedule, tick, run_for. Only the two program
/// calls are timed.
FrameTimes step(Live& L, const Workload& wl, SpanLog& log) {
  if (wl.loss_period > 0 && !L.lossy.empty()) {
    const bool burst = static_cast<int>(L.frame % static_cast<std::uint64_t>(wl.loss_period)) <
                       wl.burst_frames;
    const double loss = burst ? wl.burst_loss : wl.base_loss;
    if (loss != L.loss) {
      for (ads::UdpChannel* ch : L.lossy) ch->set_loss(loss);
      L.loss = loss;
    }
  }
  for (auto& v : L.viewers) v->busy_ns = 0;
  L.probes = {};
  L.paint_ns = 0;
  L.overhead_ns = 0;
  FrameTimes ft;
  Timed frame(log, "frame");
  {
    Timed t(log, "host.tick", process_cpu_ns);
    L.host().tick();
    ft.tick_ns = t.stop() - L.paint_ns;
  }
  if (L.sample_next) {
    const SimTime now = L.s->loop().now();
    L.history.emplace(now, L.host().capturer().last_frame());
    // Repairs can paint a tick's regions a few RTTs late; 3 s is ample.
    while (!L.history.empty() && L.history.begin()->first + 3'000'000 < now) {
      L.history.erase(L.history.begin());
    }
    L.sample_next = false;
  }
  {
    Timed t(log, "session.run_for", process_cpu_ns);
    L.s->run_for(kFrameUs);
    ft.run_ns = t.stop() - L.overhead_ns;
  }
  // Deliveries made from participant timers (reorder flushes after a
  // given-up gap) have no downlink call after them; pick them up here.
  for (auto& v : L.viewers) absorb(L, *v);
  ++L.frame;
  return ft;
}

bool all_complete(const Live& L) {
  return std::all_of(L.viewers.begin(), L.viewers.end(),
                     [](const auto& v) { return v->complete; });
}

/// Why a viewer's replica fails its check against the host frame `frame`
/// (`half` is its 2x2 box filter); empty when it passes.
std::string replica_fault(const Viewer& v, const Workload& wl, const ads::Image& frame,
                          const ads::Image& half) {
  if (!v.complete) return "never held a complete replica";
  if (wl.base_loss == 0 && v.p->stats().decode_errors != 0) {
    // On lossy links a gap skip legitimately cuts a fragmented message
    // short and counts a decode error; on clean links none may occur.
    return "decode errors on a loss-free link";
  }
  if (v.spec.codec == ads::ContentPt::kPng) {
    if (replica_equals(v.p->screen(), v.spec.scale_shift ? half : frame)) return {};
    return v.spec.scale_shift ? "replica differs from the 2x2 box filter of the host frame"
                              : "replica differs from the host frame";
  }
  const double db = psnr_db(v.p->screen(), frame);
  if (db >= kPsnrFloorDb) return {};
  return "DCT replica PSNR " + std::to_string(db) + " dB below the floor";
}

/// Drain with painting frozen and links healed until every replica passes
/// its check (at least kDrainMin, at most kDrainLimit frames), then
/// report the viewers that still fail. Returns their number.
std::uint64_t drain_and_check(Live& L, const Workload& wl, SpanLog& log,
                              std::vector<std::string>& problems) {
  const std::uint64_t drain_start = L.frame;
  for (TimedPainter* p : L.painters) p->freeze();
  for (ads::UdpChannel* ch : L.lossy) ch->set_loss(0.0);
  L.lossy.clear();
  // Painting is frozen, so the frame no longer changes after the first
  // drain tick.
  step(L, wl, log);
  const ads::Image& frame = L.host().capturer().last_frame();
  const ads::Image half = box_halve(frame);
  std::vector<std::string> faults(L.viewers.size(), "not checked");
  for (int i = 1; i < kDrainLimit; ++i) {
    step(L, wl, log);
    if (i + 1 < kDrainMin) continue;
    bool all_pass = true;
    for (std::size_t k = 0; k < L.viewers.size(); ++k) {
      faults[k] = replica_fault(*L.viewers[k], wl, frame, half);
      all_pass = all_pass && faults[k].empty();
    }
    if (all_pass) break;
  }
  L.drain_frames = L.frame - drain_start;
  for (const auto& v : L.viewers) {
    if (v->spec.codec == ads::ContentPt::kDct) {
      L.drained_psnr_min = std::min(L.drained_psnr_min, psnr_db(v->p->screen(), frame));
    }
  }
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < L.viewers.size(); ++k) {
    if (faults[k].empty()) continue;
    ++failed;
    problems.push_back(wl.name + " viewer " + std::to_string(k) + " (session at virtual " +
                       std::to_string(L.s->loop().now() / 1000) + " ms): " + faults[k]);
  }
  return failed;
}

/// Checks on the program's wire and codec output made apart from it: byte
/// conservation, and the final frame's PNG bands through libpng and its
/// DCT streams through the system zlib. Returns false when one fails.
bool global_checks(Live& L, std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  std::uint64_t direct = 0;
  std::uint64_t via_relay = 0;
  for (const auto& v : L.viewers) {
    (v->spec.via == Via::kRelay ? via_relay : direct) += v->p->stats().bytes_received;
  }
  std::uint64_t relayed = 0;
  for (const auto* r : L.relays) relayed += r->node->stats().forwarded_bytes + r->node->stats().rtx_bytes;
  if (direct > L.host().stats().bytes_sent) {
    problems.push_back("direct viewers received more media bytes than the AH sent");
  }
  if (via_relay > relayed) {
    problems.push_back("relay viewers received more media bytes than the relays forwarded");
  }
  const ads::Image& frame = L.host().capturer().last_frame();
  for (std::int64_t top = 0; top < frame.height(); top += 128) {
    const ads::Image band =
        frame.crop({0, top, frame.width(), std::min<std::int64_t>(128, frame.height() - top)});
    std::vector<std::uint8_t> filtered;
    const ads::Bytes png = ads::png_encode(band);
    if (!libpng_equals(png, band) || !inflate_idat(png, filtered)) {
      problems.push_back("libpng/zlib reject a PNG band of the final frame");
    }
    if (!dct_stream_inflates(ads::dct_encode(band))) {
      problems.push_back("zlib rejects a DCT band of the final frame");
    }
  }
  return problems.size() == before;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median of a bucketed histogram's window delta (linear within a bucket).
double histogram_p50(const ads::telemetry::HistogramSnapshot& a,
                     const ads::telemetry::HistogramSnapshot& b) {
  const std::uint64_t n = b.count - a.count;
  if (n == 0 || b.counts.empty()) return 0.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b.counts.size(); ++i) {
    const std::uint64_t c = b.counts[i] - (i < a.counts.size() ? a.counts[i] : 0);
    if (seen + c >= (n + 1) / 2 && c > 0) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(b.bounds[i - 1]);
      const double hi = i < b.bounds.size() ? static_cast<double>(b.bounds[i]) : lo;
      const double frac = (static_cast<double>((n + 1) / 2 - seen)) / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
    seen += c;
  }
  return 0.0;
}

/// Counters read at the start and end of the measured window.
struct Counters {
  ads::AppHost::Stats ah;
  ads::ParallelEncoder::Stats enc;
  std::uint64_t frames_scaled = 0;
  ads::Participant::Stats part;  ///< summed over viewers
  std::uint64_t viewer_bytes = 0;
  ads::telemetry::Snapshot tel;
  SimTime now = 0;
};

Counters read_counters(Live& L) {
  Counters c;
  c.ah = L.host().stats();
  c.enc = L.host().encoder().stats();
  c.frames_scaled = L.host().scaler().stats().frames_scaled;
  for (const auto& v : L.viewers) {
    const auto& s = v->p->stats();
    c.part.nacks_sent += s.nacks_sent;
    c.part.plis_sent += s.plis_sent;
    c.part.nack_escalations += s.nack_escalations;
    c.part.gaps_skipped += s.gaps_skipped;
    c.viewer_bytes += v->bytes;
  }
  c.tel = L.s->telemetry().snapshot();
  c.now = L.s->loop().now();
  return c;
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  Workload wl = make_workload(cfg.workload);
  if (cfg.smoke) wl.setup_reps = 1;
  const int warmup_frames = cfg.smoke ? 2 : kWarmupFrames;
  const int window_frames = cfg.smoke ? 5 : kWindowFrames;
  RunResult out;
  SpanLog log(cfg.trace);

  // Bring-up: several fresh sessions, each timed from construction until
  // every viewer holds its first complete replica (painting excluded). All
  // but the last are drained and checked at once; the last one goes on.
  const std::int64_t run_start = now_ns();
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  // setup_s is an end-to-end metric: a traced run brings up only the last
  // session, the one both kinds of run go on to measure.
  for (int rep = cfg.trace ? wl.setup_reps - 1 : 0; rep < wl.setup_reps; ++rep) {
    live.reset();
    const std::int64_t t0 = process_cpu_ns();
    std::unique_ptr<Live> L = build(wl, cfg.seed, rep, cfg.trace, log);
    std::int64_t busy = process_cpu_ns() - t0 - L->paint_ns;
    for (int f = 0; f < kBringupLimit && !all_complete(*L); ++f) {
      const FrameTimes ft = step(*L, wl, log);
      busy += ft.tick_ns + ft.run_ns;
    }
    setup_s.push_back(static_cast<double>(busy) / 1e9);
    out.attempted += L->viewers.size();
    if (rep + 1 < wl.setup_reps) {
      out.failed += drain_and_check(*L, wl, log, out.problems);
    } else {
      live = std::move(L);
    }
  }
  Live& L = *live;
  const std::int64_t warmup_start = now_ns();

  for (int f = 0; f < warmup_frames; ++f) {
    step(L, wl, log);
  }

  std::vector<const ads::AppPainter*> sources(L.painters.begin(), L.painters.end());
  std::unique_ptr<StageReplay> replay;
  if (cfg.trace) replay = std::make_unique<StageReplay>(wl, sources);
  ReplayTotals rt;

  // Measured frames: at least window_frames (the span the virtual-time and
  // byte metrics cover, so those repeat exactly per seed), and as many
  // more as fit in the run's wall-time budget.
  L.window_begin = L.s->loop().now();
  L.window_end = L.window_begin + static_cast<SimTime>(window_frames) * kFrameUs;
  const Counters c0 = read_counters(L);
  Counters c1;
  std::vector<double> host_ms;
  std::vector<double> viewer_ms;
  std::vector<double> loop_self_ms;
  std::int64_t session_ns = 0;
  std::int64_t run_sum_ns = 0;
  std::int64_t uplink_ns = 0, forward_ns = 0, leg_ns = 0;
  std::uint64_t uplink_calls = 0, forward_calls = 0, leg_calls = 0;
  const std::int64_t measure_start = now_ns();
  const std::int64_t warmup_ns = measure_start - warmup_start;
  const auto budget_ns = static_cast<std::int64_t>(cfg.smoke ? 0.0 : cfg.seconds * 1e9);
  int frames = 0;
  while (frames < window_frames || now_ns() - measure_start < budget_ns) {
    L.sample_next = frames < window_frames && frames % kPsnrEvery == 0;
    const FrameTimes ft = step(L, wl, log);
    host_ms.push_back(static_cast<double>(ft.tick_ns) / 1e6);
    session_ns += ft.tick_ns + ft.run_ns;
    run_sum_ns += ft.run_ns;
    std::int64_t viewers_ns = 0;
    for (const auto& v : L.viewers) {
      viewer_ms.push_back(static_cast<double>(v->busy_ns) / 1e6);
      viewers_ns += v->busy_ns;
    }
    loop_self_ms.push_back(
        static_cast<double>(ft.run_ns - viewers_ns - L.probes.frame_ns()) / 1e6);
    uplink_ns += L.probes.uplink_ns;
    uplink_calls += L.probes.uplink_calls;
    forward_ns += L.probes.forward_ns;
    forward_calls += L.probes.forward_calls;
    leg_ns += L.probes.leg_ns;
    leg_calls += L.probes.leg_calls;
    if (replay) {
      replay->run(L.host().capturer().last_frame(), frames % kCodecReplayEvery == 0, log, rt);
    }
    ++frames;
    if (frames == window_frames) c1 = read_counters(L);
  }

  const std::int64_t drain_start = now_ns();
  out.failed += drain_and_check(L, wl, log, out.problems);
  std::fprintf(stderr,
               "sharebench: %s phases: bring-up %.1f s, warm-up %.1f s, measured %.1f s "
               "(%d frames), drain %.1f s (%llu frames); CPU per frame: tick %.2f ms, "
               "run_for %.2f ms; %zu g2g samples; drained DCT PSNR >= %.2f dB\n",
               wl.name.c_str(), static_cast<double>(warmup_start - run_start) / 1e9,
               static_cast<double>(warmup_ns) / 1e9,
               static_cast<double>(drain_start - measure_start) / 1e9, frames,
               static_cast<double>(now_ns() - drain_start) / 1e9,
               static_cast<unsigned long long>(L.drain_frames), mean(host_ms),
               static_cast<double>(run_sum_ns) / 1e6 / frames, L.g2g_ms.size(),
               L.drained_psnr_min);
  L.history.clear();
  std::vector<double> psnr;
  for (const auto& [key, acc] : L.psnr_acc) {
    // An identical region would read +inf; it counts as 100 dB.
    psnr.push_back(std::min(100.0, psnr_from_sse(acc.first, acc.second)));
  }
  out.correct = global_checks(L, out.problems);
  if (rt.oracle_failures != 0) {
    out.correct = false;
    out.problems.push_back(std::to_string(rt.oracle_failures) +
                           " replayed bands failed the libpng/zlib oracle");
  }

  const double window_s = static_cast<double>(c1.now - c0.now) / 1e6;
  const double nwin = window_frames;
  const double nviewers = static_cast<double>(L.viewers.size());
  auto add = [&](std::string name, double value, std::string unit) {
    out.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  if (!cfg.trace) {
    double fresh = 0;
    for (const auto& v : L.viewers) fresh += static_cast<double>(v->fresh.size());
    add("setup_s", quantile(setup_s, 0.5), "s");
    add("host_frame_ms.p50", quantile(host_ms, 0.5), "ms");
    add("host_frame_ms.p90", quantile(host_ms, 0.9), "ms");
    add("viewer_frame_ms.p50", quantile(viewer_ms, 0.5), "ms");
    add("session_fps", frames / (static_cast<double>(session_ns) / 1e9), "frames/s");
    add("g2g_ms.p50", quantile(L.g2g_ms, 0.5), "ms");
    add("g2g_ms.p95", quantile(L.g2g_ms, 0.95), "ms");
    add("fresh_fps", fresh / nviewers / window_s, "frames/s");
    add("viewer_bytes_per_frame",
        static_cast<double>(c1.viewer_bytes - c0.viewer_bytes) / nviewers / nwin, "B");
    add("ah_bytes_per_frame", static_cast<double>(c1.ah.bytes_sent - c0.ah.bytes_sent) / nwin,
        "B");
    add("psnr_db.p50", quantile(psnr, 0.5), "dB");
    add("rss_peak_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");
    return out;
  }

  // Per-layer metrics. Times are means over all measured frames (or per
  // call); counts are deltas over the measured window.
  const double rf = rt.frames > 0 ? static_cast<double>(rt.frames) : 1.0;
  const double cf = rt.codec_frames > 0 ? static_cast<double>(rt.codec_frames) : 1.0;
  const auto ms = [&](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / rf; };
  const auto codec_ms = [&](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / cf; };
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const auto tel = [&](const char* name) { return d(c0.tel.counter(name), c1.tel.counter(name)); };
  const double tick_ms = mean(host_ms);

  add("capture.composite_ms", ms(rt.composite_ns), "ms");
  add("image.damage_ms", ms(rt.damage_ns), "ms");
  add("image.scroll_ms", ms(rt.scroll_ns), "ms");
  add("image.damage_kpx_per_frame", static_cast<double>(rt.damage_px) / 1000.0 / rf, "kpx");
  add("image.move_rects_per_frame", static_cast<double>(rt.move_rects) / rf, "count");
  add("transcode.scale_ms", codec_ms(rt.scale_ns), "ms");
  add("transcode.frames_scaled_per_frame", d(c0.frames_scaled, c1.frames_scaled) / nwin, "count");
  add("codec.png_encode_ms", codec_ms(rt.png_encode_ns), "ms");
  add("codec.png_deflate_ms", codec_ms(rt.png_deflate_ns), "ms");
  add("codec.png_filter_ms", codec_ms(rt.png_encode_ns - rt.png_deflate_ns), "ms");
  add("codec.dct_encode_ms", codec_ms(rt.dct_encode_ns), "ms");
  add("codec.png_decode_ms", codec_ms(rt.png_decode_ns), "ms");
  add("codec.dct_decode_ms", codec_ms(rt.dct_decode_ns), "ms");
  add("codec.png_bytes_per_frame", static_cast<double>(rt.png_bytes) / cf, "B");
  add("codec.dct_bytes_per_frame", static_cast<double>(rt.dct_bytes) / cf, "B");
  add("core.tick_ms", tick_ms, "ms");
  add("core.distribute_ms",
      tick_ms - ms(rt.composite_ns + rt.scroll_ns + rt.damage_ns) -
          codec_ms(rt.scale_ns + rt.png_encode_ns + rt.dct_encode_ns),
      "ms");
  add("core.viewer_apply_ms", mean(viewer_ms), "ms");
  add("core.uplink_us", ratio(static_cast<double>(uplink_ns) / 1e3, static_cast<double>(uplink_calls)), "us");
  add("core.cohorts_per_frame", d(c0.ah.fanout_cohorts, c1.ah.fanout_cohorts) / nwin, "count");
  add("core.encodes_unique_per_frame",
      d(c0.ah.fanout_encodes_unique, c1.ah.fanout_encodes_unique) / nwin, "count");
  add("core.encodes_shared_per_frame",
      d(c0.ah.fanout_encodes_shared, c1.ah.fanout_encodes_shared) / nwin, "count");
  add("core.cache_hit_ratio",
      ratio(d(c0.enc.cache_hits, c1.enc.cache_hits),
            d(c0.enc.cache_hits, c1.enc.cache_hits) + d(c0.enc.cache_misses, c1.enc.cache_misses)),
      "ratio");
  add("core.frames_skipped_backlog_per_s",
      d(c0.ah.frames_skipped_backlog, c1.ah.frames_skipped_backlog) / window_s, "1/s");
  add("remoting.fragment_us",
      ratio(static_cast<double>(rt.fragment_ns) / 1e3, static_cast<double>(rt.fragment_calls)), "us");
  add("remoting.fragments_per_update",
      ratio(static_cast<double>(rt.fragments), static_cast<double>(rt.fragment_calls)), "count");
  add("rtp.packets_built_per_frame", d(c0.ah.packets_built, c1.ah.packets_built) / nwin, "count");
  add("rtp.rtx_sent_per_frame",
      d(c0.ah.retransmissions_sent, c1.ah.retransmissions_sent) / nwin, "count");
  add("rtp.rtx_per_nack",
      ratio(d(c0.ah.retransmissions_sent, c1.ah.retransmissions_sent),
            d(c0.ah.nacks_received, c1.ah.nacks_received)),
      "ratio");
  add("rtp.rtx_hit_ratio",
      ratio(tel("rtx.hits"), tel("rtx.hits") + tel("rtx.misses")), "ratio");
  const double viewer_s = nviewers * window_s;
  add("rtp.nacks_per_viewer_s", d(c0.part.nacks_sent, c1.part.nacks_sent) / viewer_s, "1/s");
  add("rtp.plis_per_viewer_s", d(c0.part.plis_sent, c1.part.plis_sent) / viewer_s, "1/s");
  add("rtp.nack_escalations_per_viewer_s",
      d(c0.part.nack_escalations, c1.part.nack_escalations) / viewer_s, "1/s");
  add("rtp.gaps_skipped_per_viewer_s", d(c0.part.gaps_skipped, c1.part.gaps_skipped) / viewer_s,
      "1/s");
  add("buf.bytes_copied_per_frame",
      d(c0.ah.payload_bytes_copied, c1.ah.payload_bytes_copied) / nwin, "B");
  add("buf.pool_hit_ratio",
      ratio(tel("datapath.pool.hits"), tel("datapath.pool.acquires")), "ratio");
  add("net.loop_self_ms", mean(loop_self_ms), "ms");
  const auto hist = [](const Counters& c, const char* name) {
    const auto it = c.tel.histograms.find(name);
    return it == c.tel.histograms.end() ? ads::telemetry::HistogramSnapshot{} : it->second;
  };
  add("net.udp.queue_delay_ms.p50",
      histogram_p50(hist(c0, "net.udp.queue_delay_us"), hist(c1, "net.udp.queue_delay_us")) / 1e3,
      "ms");
  add("net.udp.queue_dropped_per_s", tel("net.udp.queue_dropped") / window_s, "1/s");
  const auto b0 = hist(c0, "net.tcp.backlog_bytes");
  const auto b1 = hist(c1, "net.tcp.backlog_bytes");
  add("net.tcp.backlog_kb",
      ratio(d(b0.sum, b1.sum) / 1024.0, d(b0.count, b1.count)), "KiB");
  ads::relay::RelayNode::Stats rs;
  for (const auto* r : L.relays) {
    rs.payload_bytes_copied += r->node->stats().payload_bytes_copied;
    rs.nacks_absorbed += r->node->stats().nacks_absorbed;
    rs.plis_received += r->node->stats().plis_received;
  }
  add("relay.forward_us",
      ratio(static_cast<double>(forward_ns) / 1e3, static_cast<double>(forward_calls)), "us");
  add("relay.leg_packet_us",
      ratio(static_cast<double>(leg_ns) / 1e3, static_cast<double>(leg_calls)), "us");
  add("relay.payload_bytes_copied", static_cast<double>(rs.payload_bytes_copied), "B");
  add("relay.nacks_absorbed", static_cast<double>(rs.nacks_absorbed), "count");
  add("relay.plis_received", static_cast<double>(rs.plis_received), "count");
  add("snapshot.bundles_built", static_cast<double>(c1.tel.counter("snapshot.bundles_built")),
      "count");
  add("snapshot.join_shared_refreshes", static_cast<double>(c1.ah.join_shared_refreshes), "count");
  std::vector<double> join_ms;
  for (const auto& v : L.viewers) join_ms.push_back(static_cast<double>(v->complete_us) / 1e3);
  add("snapshot.join_ms.p50", quantile(join_ms, 0.5), "ms");

  if (!cfg.spans_path.empty()) {
    if (!log.write(cfg.spans_path)) {
      std::fprintf(stderr, "sharebench: cannot write spans to %s\n", cfg.spans_path.c_str());
    } else if (log.dropped() != 0) {
      std::fprintf(stderr, "sharebench: span log full, %llu spans not recorded\n",
                   static_cast<unsigned long long>(log.dropped()));
    }
  }
  return out;
}

}  // namespace sharebench
