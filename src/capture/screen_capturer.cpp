#include "capture/screen_capturer.hpp"

#include <utility>

#include "image/damage.hpp"

namespace ads {

ScreenCapturer::ScreenCapturer(WindowManager& wm, std::int64_t width,
                               std::int64_t height, std::int64_t damage_tile)
    : wm_(wm),
      desktop_(width, height, Pixel{40, 44, 52, 255}),
      shared_view_(width, height, kBlack),
      tile_(damage_tile) {}

void ScreenCapturer::attach(WindowId id, std::unique_ptr<AppPainter> app) {
  if (const Window* w = wm_.find(id)) {
    if (app->content().width() != w->frame.width ||
        app->content().height() != w->frame.height) {
      app->resize(w->frame.width, w->frame.height);
    }
  }
  apps_[id] = std::move(app);
}

AppPainter* ScreenCapturer::app(WindowId id) {
  auto it = apps_.find(id);
  return it == apps_.end() ? nullptr : it->second.get();
}

void ScreenCapturer::set_screen_size(std::int64_t width, std::int64_t height) {
  if (width <= 0 || height <= 0) return;
  if (width == desktop_.width() && height == desktop_.height()) return;
  desktop_ = Image(width, height, Pixel{40, 44, 52, 255});
  // The last export stays the previous frame, so the next capture() sees
  // the size change.
  if (exported_) previous_ = std::move(shared_view_);
  shared_view_ = Image(width, height, kBlack);
  exported_ = false;
}

void ScreenCapturer::composite() {
  desktop_.fill(Pixel{40, 44, 52, 255});
  for (const Window& w : wm_.stacking_order()) {
    auto it = apps_.find(w.id);
    if (it == apps_.end()) {
      desktop_.fill_rect(w.frame, Pixel{90, 90, 90, 255});
      continue;
    }
    AppPainter& app = *it->second;
    if (app.content().width() != w.frame.width ||
        app.content().height() != w.frame.height) {
      app.resize(w.frame.width, w.frame.height);
    }
    desktop_.blit(app.content(), app.content().bounds(), {w.frame.left, w.frame.top});
  }

  // Export view: black except the visible parts of shared windows. The
  // buffer is the one capture() recycled, which may have an older size.
  if (shared_view_.bounds() != desktop_.bounds()) {
    shared_view_ = Image(desktop_.width(), desktop_.height());
  }
  shared_view_.fill(kBlack);
  const Region shared_region = wm_.visible_shared_region();
  for (const Rect& r : shared_region.rects()) {
    const Rect clipped = intersect(r, desktop_.bounds());
    shared_view_.blit(desktop_, clipped, {clipped.left, clipped.top});
  }
}

CaptureResult ScreenCapturer::capture() {
  for (auto& [id, app] : apps_) {
    if (wm_.exists(id)) app->tick(tick_);
  }
  ++tick_;
  // The last export becomes the previous frame; composite() overwrites
  // every pixel of the buffer it trades places with.
  if (exported_) std::swap(previous_, shared_view_);
  composite();
  exported_ = true;
  const bool resized = !previous_.empty() && previous_.bounds() != shared_view_.bounds();
  return {&shared_view_, resized};
}

std::vector<Rect> ScreenCapturer::damage() const {
  return diff_rects(previous_, shared_view_, tile_);
}

}  // namespace ads
