// E22 — cascaded relay tier scale-out (see scenarios.hpp).
//
// Everything is wired with in-process callbacks on the virtual clock. The
// relay arm's AH serves one participant (the root relay) whose staged views
// are buffered per tick and replayed into the tree, so the AH's tick and
// the tier's forwarding are timed separately: views are refcount bumps, so
// the buffering costs no payload copies.
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "capture/apps.hpp"
#include "relay/relay.hpp"
#include "rtp/rtcp.hpp"
#include "scenarios/scenarios.hpp"

namespace ads::scenarios {
namespace {

constexpr int kViewersPerLeaf = 4;
constexpr int kWarmupTicks = 4;
constexpr int kFeedbackTick = 8;  // measured tick where every viewer NACKs/PLIs

/// A counting viewer: either a relay leg (owner set) or a direct AH
/// participant (owner null, addressed by participant id).
struct Viewer {
  std::uint64_t packets = 0;
  std::uint16_t last_seq = 0;
  relay::RelayNode* owner = nullptr;
  relay::LegId leg = 0;
  ParticipantId id = 0;
};

struct RelayTree {
  std::vector<std::unique_ptr<relay::RelayNode>> nodes;
  std::vector<std::unique_ptr<Viewer>> viewers;
  relay::RelayNode* root = nullptr;
};

Transport viewer_endpoint(Viewer* v) {
  Transport ep;
  ep.send_batch = [v](std::span<const PacketView> pkts) {
    for (const PacketView& pkt : pkts) {
      ++v->packets;
      v->last_seq = pkt.sequence();
    }
    return pkts.size();
  };
  ep.write = [](std::span<const BytesView> parts) { return parts.front().size(); };
  return ep;
}

/// Builds the subtree rooted at `level` and returns its relay.
relay::RelayNode* build_node(EventLoop& loop, RelayTree& tree, int level,
                             int depth, int degree) {
  relay::RelayOptions opts;
  opts.report_interval_us = sim_ms(200);
  opts.seed = 0xBE1A + tree.nodes.size();  // distinct RTCP identity per node
  tree.nodes.push_back(std::make_unique<relay::RelayNode>(loop, opts));
  relay::RelayNode* node = tree.nodes.back().get();
  if (level < depth) {
    for (int c = 0; c < degree; ++c) {
      relay::RelayNode* child = build_node(loop, tree, level + 1, depth, degree);
      Transport ep;
      ep.send_batch = [child](std::span<const PacketView> pkts) {
        return child->on_upstream_batch(pkts);
      };
      ep.write = [child](std::span<const BytesView> parts) {
        child->on_upstream_datagram(
            Bytes(parts.front().begin(), parts.front().end()));
        return parts.front().size();
      };
      const relay::LegId leg = node->add_leg(std::move(ep));
      child->set_upstream([node, leg](BytesView p) {
        node->on_leg_packet(leg, p);
        return true;
      });
    }
  } else {
    for (int i = 0; i < kViewersPerLeaf; ++i) {
      tree.viewers.push_back(std::make_unique<Viewer>());
      Viewer* v = tree.viewers.back().get();
      v->owner = node;
      v->leg = node->add_leg(viewer_endpoint(v));
    }
  }
  node->start();
  return node;
}

}  // namespace

RelayTreeResult run_relay_tree(int depth, int degree, bool relay_arm) {
  using Clock = std::chrono::steady_clock;
  RelayTreeResult out;
  out.viewers_served = kViewersPerLeaf;
  for (int i = 1; i < depth; ++i) out.viewers_served *= degree;

  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.region_band_rows = 64;
  opts.frame_interval_us = sim_ms(100);
  opts.sr_interval_us = sim_ms(500);
  AppHost host(loop, opts);
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

  std::vector<PacketView> staged_views;
  std::vector<Bytes> staged_ctrl;
  RelayTree tree;
  std::vector<std::unique_ptr<Viewer>> direct_viewers;
  if (relay_arm) {
    tree.root = build_node(loop, tree, 1, depth, degree);
    Transport ep;
    ep.send_batch = [&staged_views](std::span<const PacketView> pkts) {
      staged_views.insert(staged_views.end(), pkts.begin(), pkts.end());
      return pkts.size();
    };
    ep.write = [&staged_ctrl](std::span<const BytesView> parts) {
      staged_ctrl.emplace_back(parts.front().begin(), parts.front().end());
      return parts.front().size();
    };
    const ParticipantId root_id = host.add_participant(std::move(ep));
    tree.root->set_upstream([&host, root_id](BytesView p) {
      host.on_uplink_packet(root_id, p);
      return true;
    });
  } else {
    for (int i = 0; i < out.viewers_served; ++i) {
      direct_viewers.push_back(std::make_unique<Viewer>());
      Viewer* v = direct_viewers.back().get();
      v->id = host.add_participant(viewer_endpoint(v));
    }
  }

  const auto& viewers = relay_arm ? tree.viewers : direct_viewers;
  auto inject_plis = [&] {
    PictureLossIndication pli;
    pli.sender_ssrc = 0x1EAF;
    for (const auto& v : viewers) {
      if (v->owner) {
        pli.media_ssrc = v->owner->upstream_ssrc();
        v->owner->on_leg_packet(v->leg, pli.serialize());
      } else {
        host.on_uplink_packet(v->id, pli.serialize());
      }
    }
  };
  auto run_tick = [&](bool measured) {
    const auto t0 = Clock::now();
    host.tick();
    const auto t1 = Clock::now();
    if (relay_arm) {
      tree.root->on_upstream_batch(staged_views);
      staged_views.clear();
      for (Bytes& d : staged_ctrl) tree.root->on_upstream_datagram(std::move(d));
      staged_ctrl.clear();
    }
    const auto t2 = Clock::now();
    if (measured) {
      out.ah_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      out.tier_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    }
    loop.run_until(loop.now() + opts.frame_interval_us);
  };

  inject_plis();  // every viewer late-joins; the tree collapses the storm
  for (int t = 0; t < kWarmupTicks; ++t) run_tick(false);

  out.before = host.stats();
  const auto start = Clock::now();
  for (int t = 0; t < RelayTreeResult::kMeasuredTicks; ++t) {
    if (t == kFeedbackTick) {
      // Feedback burst: a PLI from every viewer, and (relay arm) a NACK
      // for the newest sequence — served from the leaf relay's cache.
      out.plis_injected = viewers.size();
      inject_plis();
      if (relay_arm) {
        for (const auto& v : tree.viewers) {
          const GenericNack nack = GenericNack::for_sequences(
              0x1EAF, v->owner->upstream_ssrc(), {v->last_seq});
          v->owner->on_leg_packet(v->leg, nack.serialize());
        }
      }
    }
    run_tick(true);
  }
  out.measured_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  out.after = host.stats();

  out.relays = tree.nodes.size();
  for (const auto& node : tree.nodes) {
    const auto& s = node->stats();
    out.relay_payload_bytes_copied += s.payload_bytes_copied;
    out.relay_forwarded_packets += s.forwarded_packets;
    out.rtx_served += s.rtx_served;
    out.nack_seqs_received += s.nack_seqs_received;
  }
  if (relay_arm) out.nack_seqs_at_ah = tree.root->stats().nack_seqs_upstream;
  out.plis_at_ah = out.after.plis_received - out.before.plis_received;
  for (const auto& v : viewers) out.viewer_packets += v->packets;
  return out;
}

}  // namespace ads::scenarios
