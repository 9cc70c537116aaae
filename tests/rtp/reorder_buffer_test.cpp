#include "rtp/reorder_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/prng.hpp"

namespace ads {
namespace {

RtpPacket pkt(std::uint16_t seq) {
  RtpPacket p;
  p.sequence = seq;
  p.payload = {static_cast<std::uint8_t>(seq), static_cast<std::uint8_t>(seq >> 8)};
  return p;
}

std::vector<std::uint16_t> seqs(const std::vector<RtpPacket>& packets) {
  std::vector<std::uint16_t> out;
  for (const auto& p : packets) out.push_back(p.sequence);
  return out;
}

TEST(ReorderBuffer, InOrderPassThrough) {
  ReorderBuffer buf;
  EXPECT_TRUE(buf.push(pkt(10)).empty());  // the opening hold
  EXPECT_EQ(seqs(buf.end_opening()), (std::vector<std::uint16_t>{10}));
  EXPECT_EQ(seqs(buf.push(pkt(11))), (std::vector<std::uint16_t>{11}));
  EXPECT_EQ(buf.buffered(), 0u);
}

TEST(ReorderBuffer, ReorderedOpeningIsDeliveredInOrder) {
  // The stream opens with 10, 11 but 11 overtakes 10 on the link: 10 must
  // not be dropped as late, and the opening leaves in sequence order.
  ReorderBuffer buf;
  EXPECT_TRUE(buf.push(pkt(11)).empty());
  EXPECT_TRUE(buf.opening());
  EXPECT_TRUE(buf.push(pkt(10)).empty());
  EXPECT_EQ(seqs(buf.end_opening()), (std::vector<std::uint16_t>{10, 11}));
  EXPECT_EQ(buf.dropped_late(), 0u);
  EXPECT_FALSE(buf.opening());
  // After the opening the cursor is fixed: an older packet is late.
  EXPECT_TRUE(buf.push(pkt(9)).empty());
  EXPECT_EQ(buf.dropped_late(), 1u);
  EXPECT_EQ(seqs(buf.push(pkt(12))), (std::vector<std::uint16_t>{12}));
}

TEST(ReorderBuffer, OpeningStartsAtTheRunThatReachesTheFirstPacket) {
  ReorderBuffer buf;
  buf.push(pkt(12));
  buf.push(pkt(8));  // a hole (9) lies between it and the first packet
  buf.push(pkt(10));
  buf.push(pkt(11));
  EXPECT_EQ(seqs(buf.end_opening()), (std::vector<std::uint16_t>{10, 11, 12}));
  EXPECT_EQ(buf.dropped_late(), 1u);
}

TEST(ReorderBuffer, OpeningDropsStraysBehindAHole) {
  // The receiver detects losses from the first packet on, so a hole in
  // front of it is never repaired: an older stray must not open one.
  ReorderBuffer buf(4);
  buf.push(pkt(100));
  buf.push(pkt(95));  // 5 behind the first packet: beyond the window
  EXPECT_EQ(buf.dropped_late(), 1u);
  buf.push(pkt(97));  // 98 and 99 never come
  buf.push(pkt(101));
  EXPECT_EQ(seqs(buf.end_opening()), (std::vector<std::uint16_t>{100, 101}));
  EXPECT_EQ(buf.dropped_late(), 2u);
  EXPECT_EQ(buf.gaps_skipped(), 0u);
  EXPECT_EQ(seqs(buf.push(pkt(102))), (std::vector<std::uint16_t>{102}));
}

TEST(ReorderBuffer, OpeningEndsWhenTheWindowFills) {
  ReorderBuffer buf(2);
  buf.push(pkt(50));
  buf.push(pkt(51));
  EXPECT_EQ(seqs(buf.push(pkt(52))), (std::vector<std::uint16_t>{50, 51, 52}));
  EXPECT_FALSE(buf.opening());
}

TEST(ReorderBuffer, HoldsUntilGapFilled) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  buf.end_opening();
  EXPECT_TRUE(buf.push(pkt(3)).empty());
  EXPECT_EQ(buf.buffered(), 1u);
  EXPECT_EQ(seqs(buf.push(pkt(2))), (std::vector<std::uint16_t>{2, 3}));
}

TEST(ReorderBuffer, LatePacketDropped) {
  ReorderBuffer buf;
  buf.push(pkt(5));
  buf.end_opening();
  buf.push(pkt(6));
  EXPECT_TRUE(buf.push(pkt(5)).empty());  // duplicate of delivered
  EXPECT_EQ(buf.dropped_late(), 1u);
}

TEST(ReorderBuffer, DuplicateHeldPacketDropped) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  buf.end_opening();
  buf.push(pkt(3));
  buf.push(pkt(3));
  EXPECT_EQ(buf.dropped_late(), 1u);
}

TEST(ReorderBuffer, SkipGapAbandonsMissing) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  buf.end_opening();
  buf.push(pkt(3));
  buf.push(pkt(4));
  auto flushed = buf.skip_gap();
  EXPECT_EQ(seqs(flushed), (std::vector<std::uint16_t>{3, 4}));
  EXPECT_EQ(buf.gaps_skipped(), 1u);
  // Cursor advanced past the gap.
  EXPECT_EQ(seqs(buf.push(pkt(5))), (std::vector<std::uint16_t>{5}));
}

TEST(ReorderBuffer, AutoSkipAtMaxHold) {
  ReorderBuffer buf(4);
  buf.push(pkt(0));
  buf.end_opening();
  // Packet 1 missing; pile up 2..6 (5 held > max_hold 4 triggers skip).
  buf.push(pkt(2));
  buf.push(pkt(3));
  buf.push(pkt(4));
  buf.push(pkt(5));
  auto out = buf.push(pkt(6));
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{2, 3, 4, 5, 6}));
  EXPECT_EQ(buf.gaps_skipped(), 1u);
}

TEST(ReorderBuffer, ExpectedSequenceTracksCursor) {
  ReorderBuffer buf;
  EXPECT_FALSE(buf.expected_sequence().has_value());
  buf.push(pkt(100));
  buf.end_opening();
  EXPECT_EQ(buf.expected_sequence(), 101);
}

TEST(ReorderBuffer, WrapAroundDelivery) {
  ReorderBuffer buf;
  buf.push(pkt(65534));
  buf.end_opening();
  EXPECT_TRUE(buf.push(pkt(0)).empty());  // 65535 missing
  auto out = buf.push(pkt(65535));
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{65535, 0}));
}

TEST(ReorderBuffer, ExpireOlderThanFlushesAgedHeadGap) {
  ReorderBuffer buf;
  buf.push(pkt(10), /*now_us=*/1000);
  buf.end_opening();
  // 11 lost; 12 and 13 wait behind the gap.
  EXPECT_TRUE(buf.push(pkt(12), 2000).empty());
  EXPECT_TRUE(buf.push(pkt(13), 2500).empty());

  // Cutoff before the oldest held arrival: nothing expires.
  EXPECT_TRUE(buf.expire_older_than(1500).empty());
  EXPECT_EQ(buf.buffered(), 2u);

  // Oldest (arrived at 2000) is now past the cutoff: the gap is abandoned
  // and both held packets flush in order.
  auto out = buf.expire_older_than(3000);
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{12, 13}));
  EXPECT_EQ(buf.gaps_skipped(), 1u);
  EXPECT_EQ(buf.expected_sequence(), 14);
}

TEST(ReorderBuffer, ExpireCrossesMultipleGaps) {
  ReorderBuffer buf;
  buf.push(pkt(1), 100);
  buf.end_opening();
  buf.push(pkt(3), 200);   // 2 missing
  buf.push(pkt(6), 300);   // 4,5 missing
  auto out = buf.expire_older_than(1000);
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{3, 6}));
  EXPECT_EQ(buf.gaps_skipped(), 2u);
  EXPECT_TRUE(buf.expire_older_than(1000).empty());  // idempotent when empty
}

TEST(ReorderBuffer, OldestHeldTracksArrivals) {
  ReorderBuffer buf;
  EXPECT_FALSE(buf.oldest_held_us().has_value());
  buf.push(pkt(5), 100);           // held by the opening...
  EXPECT_EQ(buf.oldest_held_us(), 100u);
  buf.end_opening();               // ...and delivered when it ends
  EXPECT_FALSE(buf.oldest_held_us().has_value());
  buf.push(pkt(8), 900);           // held (6,7 missing)
  buf.push(pkt(7), 400);           // held, older arrival
  EXPECT_EQ(buf.oldest_held_us(), 400u);
}

TEST(ReorderBuffer, AgeBoundCoversSequenceWrapStall) {
  // A gap right before the 16-bit wrap with only a handful of newer
  // packets: the count bound never trips, but the age bound must.
  ReorderBuffer buf(/*max_hold=*/256);
  buf.push(pkt(65533), 100);
  buf.end_opening();
  EXPECT_TRUE(buf.push(pkt(65535), 200).empty());  // 65534 lost
  EXPECT_TRUE(buf.push(pkt(0), 300).empty());
  auto out = buf.expire_older_than(500'000);
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{65535, 0}));
  EXPECT_EQ(buf.expected_sequence(), 1);
}

TEST(ReorderBuffer, RandomPermutationDeliversInOrder) {
  Prng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    ReorderBuffer buf(512);
    // A shuffled window of 300 packets starting near wrap.
    std::vector<std::uint16_t> order;
    const std::uint16_t base = 65400;
    for (int i = 0; i < 300; ++i) order.push_back(static_cast<std::uint16_t>(base + i));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::vector<std::uint16_t> delivered;
    for (std::uint16_t s : order) {
      for (auto& p : buf.push(pkt(s))) delivered.push_back(p.sequence);
    }
    // The opening holds all 300; it starts at the earliest of them.
    for (auto& p : buf.end_opening()) delivered.push_back(p.sequence);
    EXPECT_EQ(delivered.size(), order.size());
    // Everything from the first *delivered cursor* onward arrives in order.
    for (std::size_t i = 1; i < delivered.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint16_t>(delivered[i] - delivered[i - 1]), 1u);
    }
    EXPECT_EQ(buf.gaps_skipped(), 0u);
  }
}

}  // namespace
}  // namespace ads
