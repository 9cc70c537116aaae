#include "image/damage.hpp"

#include <gtest/gtest.h>

namespace ads {
namespace {

std::int64_t total_area(const std::vector<Rect>& rects) {
  std::int64_t a = 0;
  for (const auto& r : rects) a += r.area();
  return a;
}

bool covers(const std::vector<Rect>& rects, Point p) {
  for (const auto& r : rects) {
    if (r.contains(p)) return true;
  }
  return false;
}

TEST(DiffRects, FirstFrameIsFullyDamaged) {
  // The first frame is diffed against an empty one.
  Image frame(100, 80, kBlack);
  auto damage = diff_rects(Image(), frame, 32);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], frame.bounds());
}

TEST(DiffRects, UnchangedFrameReportsNothing) {
  Image frame(100, 80, kBlack);
  EXPECT_TRUE(diff_rects(frame, frame, 32).empty());
}

TEST(DiffRects, SinglePixelChangeFoundWithinOneTile) {
  Image before(128, 128, kBlack);
  Image after = before;
  after.set(70, 40, kWhite);
  auto damage = diff_rects(before, after, 32);
  ASSERT_FALSE(damage.empty());
  EXPECT_TRUE(covers(damage, {70, 40}));
  // Damage granularity is one tile.
  EXPECT_LE(total_area(damage), 32 * 32);
}

TEST(DiffRects, DamageCoversAllChanges) {
  Image before(200, 200, kBlack);
  Image after = before;
  after.fill_rect({10, 10, 50, 5}, kWhite);
  after.fill_rect({150, 180, 30, 10}, kWhite);
  auto damage = diff_rects(before, after, 16);
  EXPECT_TRUE(covers(damage, {10, 10}));
  EXPECT_TRUE(covers(damage, {59, 14}));
  EXPECT_TRUE(covers(damage, {150, 180}));
  EXPECT_TRUE(covers(damage, {179, 189}));
}

TEST(DiffRects, ResizeTriggersFullDamage) {
  auto damage = diff_rects(Image(100, 100, kBlack), Image(200, 100, kBlack), 32);
  EXPECT_EQ(total_area(damage), 200 * 100);
}

TEST(DiffRects, ResizeReportsFullDamageNotDiff) {
  // Same pixel content, different geometry: still full damage, and it is
  // the new frame's bounds whether the frame grew or shrank.
  Image a(100, 100, kBlack);
  Image b(100, 120, kBlack);
  auto grown = diff_rects(a, b, 16);
  ASSERT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown[0], b.bounds());
  auto shrunk = diff_rects(b, a, 16);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0], a.bounds());
}

TEST(DiffRects, EdgeTilesClippedToFrame) {
  // 100 is not a multiple of 32; edge tiles must not extend past bounds.
  Image before(100, 100, kBlack);
  Image after = before;
  after.set(99, 99, kWhite);
  auto damage = diff_rects(before, after, 32);
  ASSERT_FALSE(damage.empty());
  for (const auto& r : damage) {
    EXPECT_LE(r.right(), 100);
    EXPECT_LE(r.bottom(), 100);
  }
}

TEST(DiffRects, AdjacentDirtyTilesMerge) {
  Image before(128, 128, kBlack);
  Image after = before;
  after.fill_rect({0, 0, 128, 32}, kWhite);  // full top band: 4 tiles
  auto damage = diff_rects(before, after, 32);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], (Rect{0, 0, 128, 32}));
}

TEST(DiffRects, EmptyFrameReportsNoDamage) {
  EXPECT_TRUE(diff_rects(Image(), Image(), 32).empty());
  EXPECT_TRUE(diff_rects(Image(64, 64, kBlack), Image(), 32).empty());
}

class DamageTileSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DamageTileSizes, DetectsChangeAtAnyGranularity) {
  Image before(130, 70, kBlack);
  Image after = before;
  after.fill_rect({40, 30, 20, 10}, kWhite);
  auto damage = diff_rects(before, after, GetParam());
  EXPECT_TRUE(covers(damage, {40, 30}));
  EXPECT_TRUE(covers(damage, {59, 39}));
  // Everything reported must lie within bounds.
  for (const auto& r : damage) {
    EXPECT_TRUE(after.bounds().contains(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, DamageTileSizes,
                         ::testing::Values(8, 16, 32, 33, 64, 128));

}  // namespace
}  // namespace ads
