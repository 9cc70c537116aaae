// Egress: the one send path the AH, the relays and the TCP uplink share —
// RFC 4571 framing with a carry for partial writes, per-turn UDP batching,
// control packets that queue behind media, and backlog() = link + carry.
#include "rtp/egress.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "buf/buf.hpp"
#include "rtp/framing.hpp"

namespace ads {
namespace {

PacketView media(buf::BufPool& pool, std::uint16_t seq, std::size_t len) {
  buf::BufRef ref = pool.acquire(len);
  for (std::size_t i = 0; i < len; ++i) {
    ref.bytes().push_back(static_cast<std::uint8_t>(seq + i));
  }
  return PacketView::build(false, 96, seq, 1000, 0xCAFE, std::move(ref), 0, len);
}

/// A stream link whose next writes accept `budget` bytes each (then all).
struct StreamLink {
  Bytes wire;                  ///< everything the link accepted, in order
  std::vector<std::size_t> budget;
  std::size_t backlog = 0;

  Transport transport() {
    Transport t;
    t.kind = Transport::Kind::kTcp;
    t.write = [this](std::span<const BytesView> parts) {
      std::size_t offered = 0;
      for (const BytesView& p : parts) offered += p.size();
      std::size_t allow = offered;
      if (!budget.empty()) {
        allow = std::min(offered, budget.front());
        budget.erase(budget.begin());
      }
      std::size_t left = allow;
      for (const BytesView& p : parts) {
        const std::size_t take = std::min(left, p.size());
        wire.insert(wire.end(), p.begin(),
                    p.begin() + static_cast<std::ptrdiff_t>(take));
        left -= take;
      }
      return allow;
    };
    t.backlog = [this] { return backlog; };
    return t;
  }

  /// The accepted stream cut back into packets.
  std::vector<Bytes> packets() const {
    StreamDeframer d;
    d.feed(wire);
    std::vector<Bytes> out;
    while (auto p = d.next()) out.push_back(std::move(*p));
    return out;
  }
};

TEST(Egress, PartialWriteRestagesOnlyTheUnacceptedSuffix) {
  buf::BufPool pool;
  StreamLink link;
  link.budget = {30};  // the first write takes 30 of 14 + 100 bytes
  std::uint64_t copied = 0;
  Egress eg(link.transport(), &copied);

  const PacketView v = media(pool, 1, 100);
  EXPECT_EQ(eg.send(v), v.framed_size());
  EXPECT_EQ(copied, v.framed_size() - 30);
  EXPECT_EQ(eg.backlog(), v.framed_size() - 30);

  // The next write offers the carry first; the carry's own bytes are not
  // copied again, only the new packet's unaccepted tail would be.
  link.budget = {10};
  const PacketView w = media(pool, 2, 40);
  eg.send(w);
  EXPECT_EQ(copied, v.framed_size() - 30 + w.framed_size());
  eg.drain();  // unlimited from here on
  EXPECT_EQ(eg.backlog(), 0u);
  EXPECT_EQ(copied, v.framed_size() - 30 + w.framed_size());

  const std::vector<Bytes> got = link.packets();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], v.serialize());
  EXPECT_EQ(got[1], w.serialize());
}

TEST(Egress, ControlPacketQueuesBehindTheCarry) {
  buf::BufPool pool;
  StreamLink link;
  link.budget = {20, 0};  // a torn media frame, then a closed window
  Egress eg(link.transport());

  const PacketView v = media(pool, 7, 200);
  eg.send(v);
  const Bytes sr = {0x80, 200, 0, 6, 1, 2, 3, 4};
  eg.send_control(sr);  // offered while the frame is still half written
  EXPECT_EQ(link.wire.size(), 20u);
  eg.drain();

  const std::vector<Bytes> got = link.packets();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], v.serialize());  // the frame is whole…
  EXPECT_EQ(got[1], sr);             // …and the control packet follows it
}

TEST(Egress, UdpTurnDrainsInOneBatchCall) {
  buf::BufPool pool;
  std::vector<std::size_t> batches;
  std::vector<Bytes> datagrams;
  Transport t;
  t.send_batch = [&](std::span<const PacketView> pkts) {
    batches.push_back(pkts.size());
    return pkts.size();
  };
  t.write = [&](std::span<const BytesView> parts) {
    datagrams.emplace_back(parts.front().begin(), parts.front().end());
    return parts.front().size();
  };
  Egress eg(std::move(t));

  for (std::uint16_t s = 0; s < 5; ++s) EXPECT_EQ(eg.send(media(pool, s, 50)), 62u);
  EXPECT_TRUE(batches.empty());  // queued for the turn
  eg.flush();
  EXPECT_EQ(batches, (std::vector<std::size_t>{5}));
  eg.flush();  // an empty turn costs no call
  EXPECT_EQ(batches.size(), 1u);

  // A control datagram flushes the queued turn ahead of itself.
  eg.send(media(pool, 9, 50));
  eg.send_control(Bytes{1, 2, 3});
  EXPECT_EQ(batches, (std::vector<std::size_t>{5, 1}));
  ASSERT_EQ(datagrams.size(), 1u);
  EXPECT_EQ(datagrams[0], (Bytes{1, 2, 3}));
}

TEST(Egress, BacklogIncludesTheCarry) {
  buf::BufPool pool;
  StreamLink link;
  link.backlog = 1000;
  link.budget = {0};
  Egress eg(link.transport());
  EXPECT_EQ(eg.backlog(), 1000u);
  const PacketView v = media(pool, 3, 86);
  eg.send(v);
  EXPECT_EQ(eg.backlog(), 1000u + v.framed_size());
}

TEST(Egress, OversizePacketsAreDroppedWhole) {
  buf::BufPool pool;
  StreamLink link;
  std::uint64_t copied = 0;
  Egress tcp(link.transport(), &copied);
  EXPECT_EQ(tcp.send(media(pool, 1, Egress::kMaxFrame)), 0u);  // 12 + 65535
  EXPECT_TRUE(link.wire.empty());
  EXPECT_EQ(copied, 0u);

  std::size_t sent = 0;
  Transport t;
  t.send_batch = [&](std::span<const PacketView> pkts) {
    sent += pkts.size();
    return pkts.size();
  };
  Egress udp(std::move(t));
  EXPECT_EQ(udp.send(media(pool, 2, Egress::kMaxDatagram - 11)), 0u);
  EXPECT_EQ(udp.send(media(pool, 3, Egress::kMaxDatagram - 12)),
            Egress::kMaxDatagram);
  udp.flush();
  EXPECT_EQ(sent, 1u);
}

}  // namespace
}  // namespace ads
