#include "remoting/region_update.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace ads {
namespace {

RegionUpdate sample(std::size_t content_size) {
  RegionUpdate msg;
  msg.window_id = 1;
  msg.content_pt = 98;
  msg.left = 220;
  msg.top = 150;
  msg.content.resize(content_size);
  Prng rng(content_size + 1);
  for (auto& b : msg.content) b = static_cast<std::uint8_t>(rng.next_u32());
  return msg;
}

RegionUpdate reassemble(const std::vector<RegionUpdateFragment>& frags) {
  RegionUpdateReassembler reasm;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    auto result = reasm.feed(frags[i].payload, frags[i].marker);
    EXPECT_TRUE(result.ok());
    if (i + 1 < frags.size()) {
      EXPECT_FALSE(result->has_value()) << "completed early at " << i;
    } else {
      EXPECT_TRUE(result->has_value());
      return **result;
    }
  }
  return {};
}

TEST(RegionUpdate, Figure11WireLayoutNonFragmented) {
  // Figure 11: Msg Type=2, F=1, PT, WindowID=1, Left, Top, payload;
  // both the RTP marker bit and the FirstPacket bit set.
  RegionUpdate msg = sample(5);
  auto frags = fragment_region_update(msg, 1200);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].marker);
  EXPECT_EQ(frags[0].type(), FragmentType::kNotFragmented);
  const Bytes& p = frags[0].payload;
  ASSERT_EQ(p.size(), 4u + 8u + 5u);
  EXPECT_EQ(p[0], 2);            // Msg Type = RegionUpdate
  EXPECT_EQ(p[1], 0x80 | 98);    // F=1 | PT
  EXPECT_EQ(p[2], 0x00);
  EXPECT_EQ(p[3], 0x01);         // WindowID = 1
  EXPECT_EQ(p[7], 220);          // Left (low byte)
  EXPECT_EQ(p[11], 150);         // Top (low byte)
}

TEST(RegionUpdate, SinglePacketRoundTrip) {
  const RegionUpdate msg = sample(100);
  auto frags = fragment_region_update(msg, 1200);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(reassemble(frags), msg);
}

TEST(RegionUpdate, FragmentationRespectsMtu) {
  const RegionUpdate msg = sample(10'000);
  const std::size_t mtu = 1200;
  auto frags = fragment_region_update(msg, mtu);
  EXPECT_GT(frags.size(), 1u);
  for (const auto& f : frags) EXPECT_LE(f.payload.size(), mtu);
  EXPECT_EQ(reassemble(frags), msg);
}

TEST(RegionUpdate, Table2FragmentSequence) {
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  ASSERT_GE(frags.size(), 3u);
  EXPECT_EQ(frags.front().type(), FragmentType::kStart);
  for (std::size_t i = 1; i + 1 < frags.size(); ++i) {
    EXPECT_EQ(frags[i].type(), FragmentType::kContinuation) << i;
  }
  EXPECT_EQ(frags.back().type(), FragmentType::kEnd);
  // Only the last packet carries the marker (§5.1.1).
  for (std::size_t i = 0; i + 1 < frags.size(); ++i) EXPECT_FALSE(frags[i].marker);
  EXPECT_TRUE(frags.back().marker);
}

TEST(RegionUpdate, LeftTopOnlyInFirstFragment) {
  // §5.2.2: "left and top fields are carried only in the first RTP payload".
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  EXPECT_EQ(frags[0].payload.size(), 1200u);
  // Continuation payload = 4-byte header + content (no left/top).
  std::size_t total = 0;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    total += frags[i].payload.size() - 4u - (i == 0 ? 8u : 0u);
  }
  EXPECT_EQ(total, msg.content.size());
}

TEST(RegionUpdate, EmptyContentStillValid) {
  // A RegionUpdate with no payload bytes (e.g. pointer move carrier).
  const RegionUpdate msg = sample(0);
  auto frags = fragment_region_update(msg, 1200);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].marker);
  EXPECT_EQ(reassemble(frags), msg);
}

TEST(RegionUpdate, ExactMtuBoundary) {
  // Content that exactly fills the first packet must not spawn an empty
  // continuation.
  const std::size_t mtu = 100;
  const RegionUpdate msg = sample(mtu - 12);
  auto frags = fragment_region_update(msg, mtu);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].marker);
}

TEST(RegionUpdate, OneByteOverMtuSplitsInTwo) {
  const std::size_t mtu = 100;
  const RegionUpdate msg = sample(mtu - 12 + 1);
  auto frags = fragment_region_update(msg, mtu);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[1].payload.size(), 4u + 1u);
  EXPECT_EQ(reassemble(frags), msg);
}

TEST(Reassembler, ContinuationWithoutStartIsBadState) {
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  RegionUpdateReassembler reasm;
  ASSERT_TRUE(reasm.feed(frags[0].payload, frags[0].marker).ok());
  reasm.reset();  // the rest of the message was lost
  auto result = reasm.feed(frags[1].payload, frags[1].marker);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), ParseError::kBadState);
}

TEST(Reassembler, ContinuationBeforeFirstStartIsDroppedSilently) {
  // A late joiner's stream can open mid-message: the tail of that message
  // is not an error, and the next whole message reassembles normally.
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  RegionUpdateReassembler reasm;
  for (std::size_t i = 1; i < frags.size(); ++i) {
    auto result = reasm.feed(frags[i].payload, frags[i].marker);
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_FALSE(result->has_value()) << i;
  }
  EXPECT_EQ(reasm.messages_aborted(), 0u);
  std::optional<RegionUpdate> whole;
  for (const auto& f : frags) {
    auto result = reasm.feed(f.payload, f.marker);
    ASSERT_TRUE(result.ok());
    if (result->has_value()) whole = std::move(**result);
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, msg);
}

TEST(Reassembler, NewStartAbortsOldMessage) {
  const RegionUpdate first = sample(5000);
  const RegionUpdate second = sample(100);
  auto frags1 = fragment_region_update(first, 1200);
  auto frags2 = fragment_region_update(second, 1200);

  RegionUpdateReassembler reasm;
  (void)reasm.feed(frags1[0].payload, frags1[0].marker);  // start, no end
  auto result = reasm.feed(frags2[0].payload, frags2[0].marker);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->has_value());
  EXPECT_EQ(**result, second);
  EXPECT_EQ(reasm.messages_aborted(), 1u);
}

TEST(Reassembler, MismatchedWindowIdMidMessageRejected) {
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  Bytes corrupted = frags[1].payload;
  corrupted[3] ^= 0xFF;  // change WindowID
  RegionUpdateReassembler reasm;
  (void)reasm.feed(frags[0].payload, frags[0].marker);
  auto result = reasm.feed(corrupted, frags[1].marker);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(reasm.in_progress());
}

TEST(Reassembler, OversizeMessageRejected) {
  RegionUpdateReassembler reasm(RemotingType::kRegionUpdate, 1000);
  const RegionUpdate msg = sample(5000);
  auto frags = fragment_region_update(msg, 1200);
  auto result = reasm.feed(frags[0].payload, frags[0].marker);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), ParseError::kOverflow);
}

TEST(Reassembler, WrongMessageTypeRejected) {
  RegionUpdateReassembler reasm(RemotingType::kMousePointerInfo);
  const RegionUpdate msg = sample(10);
  auto frags = fragment_region_update(msg, 1200);  // type = RegionUpdate
  EXPECT_FALSE(reasm.feed(frags[0].payload, frags[0].marker).ok());
}

TEST(Reassembler, CountsCompletedMessages) {
  RegionUpdateReassembler reasm;
  for (int i = 0; i < 3; ++i) {
    const RegionUpdate msg = sample(3000);
    for (const auto& f : fragment_region_update(msg, 500)) {
      ASSERT_TRUE(reasm.feed(f.payload, f.marker).ok());
    }
  }
  EXPECT_EQ(reasm.messages_completed(), 3u);
  EXPECT_EQ(reasm.messages_aborted(), 0u);
}

class MtuSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MtuSweep, RoundTripAtEveryMtu) {
  const RegionUpdate msg = sample(20'000);
  auto frags = fragment_region_update(msg, GetParam());
  for (const auto& f : frags) EXPECT_LE(f.payload.size(), GetParam());
  EXPECT_EQ(reassemble(frags), msg);
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweep,
                         ::testing::Values(13, 64, 576, 1200, 1460, 9000, 65000));

TEST(FragmentInto, StreamWindowsMatchPerFragmentSerialisation) {
  // The zero-copy stream writer must produce, fragment by fragment, exactly
  // the bytes of the allocating fragmenter — offsets/lengths window a single
  // buffer instead of owning per-fragment vectors.
  for (const std::size_t content : {std::size_t{0}, std::size_t{5},
                                    std::size_t{1188}, std::size_t{1189},
                                    std::size_t{20'000}}) {
    for (const std::size_t mtu : {std::size_t{13}, std::size_t{64},
                                  std::size_t{1200}, std::size_t{65000}}) {
      const RegionUpdate msg = sample(content);
      auto frags = fragment_region_update(msg, mtu);
      Bytes stream;
      auto spans = fragment_region_update_into(msg, mtu, stream);
      ASSERT_EQ(spans.size(), frags.size()) << content << "/" << mtu;
      std::size_t total = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].marker, frags[i].marker) << i;
        EXPECT_EQ(spans[i].offset, total) << i;  // contiguous, in order
        const BytesView window(stream.data() + spans[i].offset, spans[i].length);
        EXPECT_TRUE(std::equal(window.begin(), window.end(),
                               frags[i].payload.begin(), frags[i].payload.end()))
            << "fragment " << i << " bytes diverged at " << content << "/" << mtu;
        total += spans[i].length;
      }
      EXPECT_EQ(total, stream.size());
    }
  }
}

TEST(FragmentInto, AppendsToExistingStream) {
  // dest is append-only: a caller can pack several messages into one buffer.
  const RegionUpdate a = sample(300);
  const RegionUpdate b = sample(40);
  Bytes stream = {0xEE, 0xFF};  // pre-existing bytes survive
  auto sa = fragment_region_update_into(a, 128, stream);
  const std::size_t after_a = stream.size();
  auto sb = fragment_region_update_into(b, 128, stream,
                                        RemotingType::kMousePointerInfo);
  EXPECT_EQ(stream[0], 0xEE);
  EXPECT_EQ(stream[1], 0xFF);
  ASSERT_FALSE(sa.empty());
  ASSERT_FALSE(sb.empty());
  EXPECT_EQ(sa.front().offset, 2u);
  EXPECT_EQ(sb.front().offset, after_a);
  // The second message really carries the requested type byte.
  EXPECT_EQ(stream[sb.front().offset],
            static_cast<std::uint8_t>(RemotingType::kMousePointerInfo));
}

TEST(FragmentInto, StreamReassemblesIdentically) {
  const RegionUpdate msg = sample(5000);
  Bytes stream;
  auto spans = fragment_region_update_into(msg, 500, stream);
  RegionUpdateReassembler reasm;
  std::optional<RegionUpdate> done;
  for (const FragmentSpan& s : spans) {
    auto r = reasm.feed(BytesView(stream.data() + s.offset, s.length), s.marker);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) done = **r;
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, msg);
}

}  // namespace
}  // namespace ads
