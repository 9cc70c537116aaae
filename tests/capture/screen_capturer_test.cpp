#include "capture/screen_capturer.hpp"

#include <gtest/gtest.h>

namespace ads {
namespace {

bool covers(const std::vector<Rect>& rects, Point p) {
  for (const Rect& r : rects) {
    if (r.contains(p)) return true;
  }
  return false;
}

/// Every row a distinct colour, scrolled up 16 rows per tick.
class ScrollingRows final : public AppPainter {
 public:
  ScrollingRows(std::int64_t w, std::int64_t h) : AppPainter(w, h, kBlack) {}
  void tick(std::uint64_t t) override {
    for (std::int64_t y = 0; y < content_.height(); ++y) {
      const auto v = static_cast<std::uint8_t>(y + static_cast<std::int64_t>(t) * 16);
      content_.fill_rect({0, y, content_.width(), 1}, Pixel{v, 0, 0, 255});
    }
  }
  std::string_view name() const override { return "scrolling-rows"; }
};

struct CapturerTest : ::testing::Test {
  WindowManager wm;
};

TEST_F(CapturerTest, FirstCaptureReportsFullDamage) {
  ScreenCapturer cap(wm, 320, 240);
  wm.create({10, 10, 100, 100}, 1);
  EXPECT_FALSE(cap.capture().resized);
  std::int64_t area = 0;
  for (const Rect& r : cap.damage()) area += r.area();
  EXPECT_EQ(area, 320 * 240);
}

TEST_F(CapturerTest, StaticSceneProducesNoDamage) {
  ScreenCapturer cap(wm, 320, 240);
  wm.create({10, 10, 100, 100}, 1);  // no app attached: static grey fill
  cap.capture();
  cap.capture();
  EXPECT_TRUE(cap.damage().empty());
}

TEST_F(CapturerTest, AppActivityProducesDamageInsideWindow) {
  const WindowId w = wm.create({50, 60, 128, 96}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<PaintApp>(128, 96, 5));
  cap.capture();
  cap.capture();
  const std::vector<Rect> damage = cap.damage();
  ASSERT_FALSE(damage.empty());
  // Damage is tile-granular, so rectangles may overhang the window by up to
  // one tile — but every damage rect must at least intersect it.
  const Rect window{50, 60, 128, 96};
  const Rect tile_padded{50 - 32, 60 - 32, 128 + 64, 96 + 64};
  for (const Rect& r : damage) {
    EXPECT_TRUE(overlaps(window, r)) << to_string(r);
    EXPECT_TRUE(tile_padded.contains(r)) << to_string(r);
  }
}

TEST_F(CapturerTest, SharedViewBlanksDesktopBackground) {
  const WindowId w = wm.create({50, 60, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  cap.capture();
  const Image& view = cap.last_frame();
  // Outside every window: black.
  EXPECT_EQ(view.at(0, 0), kBlack);
  EXPECT_EQ(view.at(300, 200), kBlack);
  // Inside the shared window: app content (slideshow never paints black).
  EXPECT_NE(view.at(60, 70), kBlack);
}

TEST_F(CapturerTest, NonSharedWindowsAreBlanked) {
  const WindowId shared = wm.create({0, 0, 100, 100}, 1);
  const WindowId secret = wm.create({150, 0, 100, 100}, 2);
  wm.share_group(1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(shared, std::make_unique<SlideshowApp>(100, 100, 3));
  cap.attach(secret, std::make_unique<SlideshowApp>(100, 100, 4));
  cap.capture();
  const Image& view = cap.last_frame();
  EXPECT_NE(view.at(50, 50), kBlack);   // shared content visible
  EXPECT_EQ(view.at(200, 50), kBlack);  // secret window blanked
  // The AH user still sees the secret window on their own desktop.
  EXPECT_NE(cap.desktop().at(200, 50), Pixel(40, 44, 52, 255));
}

TEST_F(CapturerTest, NonSharedWindowOnTopBlanksOverlap) {
  const WindowId shared = wm.create({0, 0, 200, 200}, 1);
  const WindowId secret = wm.create({50, 50, 100, 100}, 2);  // on top
  wm.share_group(1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(shared, std::make_unique<SlideshowApp>(200, 200, 3));
  cap.attach(secret, std::make_unique<SlideshowApp>(100, 100, 4));
  cap.capture();
  const Image& view = cap.last_frame();
  EXPECT_NE(view.at(10, 10), kBlack);    // uncovered shared area
  EXPECT_EQ(view.at(100, 100), kBlack);  // covered by secret window
}

TEST_F(CapturerTest, WindowMoveCausesDamageAtBothPositions) {
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  cap.capture();
  cap.capture();  // settle
  wm.move(w, {128, 128});
  cap.capture();
  const std::vector<Rect> damage = cap.damage();
  EXPECT_TRUE(covers(damage, {10, 10}));     // old position cleared
  EXPECT_TRUE(covers(damage, {140, 140}));   // new position painted
}

TEST_F(CapturerTest, PreviousFrameIsTheLastExport) {
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<PaintApp>(64, 64, 5));
  cap.capture();
  EXPECT_TRUE(cap.previous_frame().empty());
  const Image first = cap.last_frame();
  cap.capture();
  EXPECT_EQ(cap.previous_frame(), first);
  const Image second = cap.last_frame();
  cap.capture();
  EXPECT_EQ(cap.previous_frame(), second);
}

TEST_F(CapturerTest, ResizeIsReportedOnceWithFullDamage) {
  wm.create({10, 10, 100, 100}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.capture();
  cap.set_screen_size(400, 300);
  EXPECT_EQ(cap.last_frame().bounds(), (Rect{0, 0, 400, 300}));
  EXPECT_TRUE(cap.capture().resized);
  EXPECT_EQ(cap.previous_frame().bounds(), (Rect{0, 0, 320, 240}));
  const std::vector<Rect> damage = cap.damage();
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], (Rect{0, 0, 400, 300}));
  EXPECT_FALSE(cap.capture().resized);
  EXPECT_TRUE(cap.damage().empty());

  // Shrinking and growing back before the next capture is no resize.
  cap.set_screen_size(200, 100);
  cap.set_screen_size(400, 300);
  EXPECT_FALSE(cap.capture().resized);
  EXPECT_TRUE(cap.damage().empty());
}

TEST_F(CapturerTest, MovedPreviousLeavesOnlyResidualDamage) {
  // Window content scrolls up 16 rows per tick: replaying that move on the
  // previous frame leaves only the newly exposed bottom strip as damage.
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 128, 128, 16);
  cap.attach(w, std::make_unique<ScrollingRows>(64, 64));
  cap.capture();
  cap.capture();
  EXPECT_EQ(cap.damage(), (std::vector<Rect>{{0, 0, 64, 64}}));
  cap.move_previous({0, 16, 64, 48}, {0, 0});
  EXPECT_EQ(cap.damage(), (std::vector<Rect>{{0, 48, 64, 16}}));
}

TEST_F(CapturerTest, ResizeReshapesAppBackingStore) {
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<TerminalApp>(64, 64, 3));
  cap.capture();
  wm.resize(w, 128, 96);
  cap.capture();
  EXPECT_EQ(cap.app(w)->content().width(), 128);
  EXPECT_EQ(cap.app(w)->content().height(), 96);
}

TEST_F(CapturerTest, TickCounterAdvances) {
  ScreenCapturer cap(wm, 64, 64);
  EXPECT_EQ(cap.ticks(), 0u);
  cap.capture();
  cap.capture();
  EXPECT_EQ(cap.ticks(), 2u);
}

}  // namespace
}  // namespace ads
