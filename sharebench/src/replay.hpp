// Traced-mode stage replay, outside the program: runs each layer's public
// functions on the frames and bands the AH just produced, timing every call
// and passing every encoded band through the libpng/zlib oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture/screen_capturer.hpp"
#include "codec/video_codec.hpp"
#include "image/image.hpp"
#include "trace.hpp"
#include "wm/window_manager.hpp"
#include "workloads.hpp"

namespace sharebench {

/// Per-layer totals the replay accumulates over the measured frames.
struct ReplayTotals {
  std::int64_t frames = 0;        ///< frames whose capture/scroll/damage ran
  std::int64_t codec_frames = 0;  ///< frames whose scale/encode/decode ran
  std::int64_t composite_ns = 0;
  std::int64_t scroll_ns = 0;
  std::int64_t damage_ns = 0;
  std::int64_t scale_ns = 0;
  std::int64_t png_encode_ns = 0;
  std::int64_t png_deflate_ns = 0;
  std::int64_t dct_encode_ns = 0;
  std::int64_t png_decode_ns = 0;
  std::int64_t dct_decode_ns = 0;
  std::int64_t fragment_ns = 0;
  std::uint64_t fragment_calls = 0;
  std::uint64_t fragments = 0;
  std::uint64_t damage_px = 0;
  std::uint64_t move_rects = 0;
  std::uint64_t png_bytes = 0;
  std::uint64_t dct_bytes = 0;
  std::uint64_t bands_checked = 0;
  std::uint64_t oracle_failures = 0;
};

/// One operating point the AH encodes for: codec and downscale rung.
struct Cohort {
  ads::ContentPt pt;
  std::uint8_t scale_shift;
};

/// Re-runs the AH's capture, scroll, damage, scale, encode and fragment
/// stages on the host's own frames, through the same public functions.
class StageReplay {
 public:
  /// `sources` are the host's painters, in workload window order; the
  /// replay composites copies of their content (the copy is excluded from
  /// the composite time, like painting on the host).
  StageReplay(const Workload& wl, std::vector<const ads::AppPainter*> sources);
  ~StageReplay();

  /// Replay one tick whose exported frame is `host_frame`: capture, scroll
  /// and damage always, the per-cohort scale, encode, decode and fragment
  /// stages only when `codec` is set.
  void run(const ads::Image& host_frame, bool codec, SpanLog& log, ReplayTotals& t);

 private:
  void encode_band(const Cohort& c, const ads::Image& band, const ads::Rect& r,
                   SpanLog& log, ReplayTotals& t);

  std::vector<Cohort> cohorts_;
  ads::WindowManager wm_;
  std::unique_ptr<ads::ScreenCapturer> capturer_;
  std::int64_t copy_ns_ = 0;  ///< mirror-painter copy time, reset per replay
  ads::Image previous_;
  ads::EncodeScratch scratch_;
  ads::Bytes encoded_;
  ads::Bytes deflated_;
  ads::Bytes stream_;
  std::vector<std::uint8_t> filtered_;
};

}  // namespace sharebench
