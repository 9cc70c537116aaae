// Screen capture substitute: composites the window manager's windows (each
// backed by an AppPainter) into a desktop framebuffer, blanks everything
// outside the visible shared region ("must blank all the nonshared
// windows", §2), and keeps the previously exported view so that damage()
// can report what changed via tile hashing.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "capture/apps.hpp"
#include "image/image.hpp"
#include "wm/window_manager.hpp"

namespace ads {

/// What one capture() produced.
struct CaptureResult {
  /// The shared view: desktop-sized, non-shared areas blanked.
  const Image* frame = nullptr;
  /// True when `frame` differs in size from the previous capture's frame (a
  /// display-mode change); false on the first capture, which has none.
  bool resized = false;
};

/// The AH's capture stage: composites, blanks and exports the shared view
/// each tick, and reports what changed since the previous one.
class ScreenCapturer {
 public:
  /// A `width` x `height` desktop over `wm`'s windows; `damage_tile` is the
  /// tile size in pixels at which damage() reports change.
  ScreenCapturer(WindowManager& wm, std::int64_t width, std::int64_t height,
                 std::int64_t damage_tile = 32);

  /// Attach a content source to a window. The painter is resized to the
  /// window's current frame.
  void attach(WindowId id, std::unique_ptr<AppPainter> app);
  /// The content source attached to `id`, or null.
  AppPainter* app(WindowId id);

  /// Advance all attached applications one tick and recomposite. The frame
  /// the previous call exported becomes previous_frame().
  CaptureResult capture();

  /// The frame the previous capture() exported, with every move_previous()
  /// since applied. Empty until the second capture.
  const Image& previous_frame() const { return previous_; }

  /// Replay a verified scroll (§5.2.3) on previous_frame(): copy `source` to
  /// `dest`, so damage() reports only what the move does not explain.
  void move_previous(const Rect& source, Point dest) {
    previous_.move_rect(source, dest);
  }

  /// What the last capture changed: the tiles where last_frame() differs
  /// from previous_frame(), merged into disjoint rectangles (diff_rects).
  /// The whole frame on the first capture and after a resize.
  std::vector<Rect> damage() const;

  /// Resize the host desktop (display-mode change). The next capture()
  /// reports `resized` and the whole new frame as damage. No-op on a
  /// non-positive or unchanged size.
  void set_screen_size(std::int64_t width, std::int64_t height);

  /// The shared view the last capture() exported (black before the first).
  const Image& last_frame() const { return shared_view_; }
  /// All windows, non-shared ones included, as the AH user sees them.
  const Image& desktop() const { return desktop_; }
  /// Desktop width in pixels.
  std::int64_t width() const { return desktop_.width(); }
  /// Desktop height in pixels.
  std::int64_t height() const { return desktop_.height(); }
  /// Number of capture() calls so far.
  std::uint64_t ticks() const { return tick_; }

 private:
  void composite();

  WindowManager& wm_;
  std::map<WindowId, std::unique_ptr<AppPainter>> apps_;
  Image desktop_;      ///< all windows, as the AH user sees them
  Image shared_view_;  ///< blanked view exported to participants
  Image previous_;     ///< the view exported before shared_view_
  /// shared_view_ holds an exported frame (false until the first capture
  /// and after a resize reallocates it).
  bool exported_ = false;
  std::int64_t tile_;
  std::uint64_t tick_ = 0;
};

}  // namespace ads
