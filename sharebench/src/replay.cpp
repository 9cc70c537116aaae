#include "replay.hpp"

#include <algorithm>

#include "codec/dct_codec.hpp"
#include "codec/deflate.hpp"
#include "codec/png.hpp"
#include "image/damage.hpp"
#include "image/scroll_detect.hpp"
#include "oracle.hpp"
#include "remoting/region_update.hpp"
#include "transcode/transcode.hpp"

namespace sharebench {

namespace {

/// Replays a host painter's current content without painting: the replay
/// capturer composites exactly what the host composited.
class MirrorPainter final : public ads::AppPainter {
 public:
  MirrorPainter(const ads::AppPainter* src, std::int64_t* copy_ns)
      : AppPainter(src->content().width(), src->content().height(), ads::kBlack),
        src_(src),
        copy_ns_(copy_ns) {}
  void tick(std::uint64_t) override {
    const std::int64_t t0 = now_ns();
    content_ = src_->content();
    *copy_ns_ += now_ns() - t0;
  }
  std::string_view name() const override { return src_->name(); }
  void resize(std::int64_t, std::int64_t) override { content_ = src_->content(); }

 private:
  const ads::AppPainter* src_;
  std::int64_t* copy_ns_;
};

/// The AH's band split (AppHostOptions::region_band_rows = 128).
std::vector<ads::Rect> band_split(const std::vector<ads::Rect>& rects) {
  constexpr std::int64_t kRows = 128;
  std::vector<ads::Rect> out;
  for (const ads::Rect& r : rects) {
    if (r.empty()) continue;
    for (std::int64_t top = r.top; top < r.bottom(); top += kRows) {
      out.push_back({r.left, top, r.width, std::min(kRows, r.bottom() - top)});
    }
  }
  return out;
}

}  // namespace

StageReplay::StageReplay(const Workload& wl, std::vector<const ads::AppPainter*> sources) {
  for (const ViewerSpec& v : wl.viewers) {
    // Relay viewers receive their relay's stream, which the AH encodes at
    // native geometry with its default codec.
    const Cohort c{v.codec, v.scale_shift};
    const bool seen = std::any_of(cohorts_.begin(), cohorts_.end(), [&](const Cohort& o) {
      return o.pt == c.pt && o.scale_shift == c.scale_shift;
    });
    if (!seen) cohorts_.push_back(c);
  }
  capturer_ = std::make_unique<ads::ScreenCapturer>(wm_, wl.width, wl.height, 32);
  for (std::size_t i = 0; i < wl.windows.size(); ++i) {
    const ads::WindowId id = wm_.create(wl.windows[i].frame, 1);
    capturer_->attach(id, std::make_unique<MirrorPainter>(sources[i], &copy_ns_));
  }
}

StageReplay::~StageReplay() = default;

void StageReplay::run(const ads::Image& host_frame, bool codec, SpanLog& log,
                      ReplayTotals& t) {
  Timed all(log, "replay");
  ++t.frames;
  copy_ns_ = 0;
  {
    Timed c(log, "replay.capture");
    capturer_->capture();
    t.composite_ns += c.stop() - copy_ns_;
  }
  const ads::Image& frame = capturer_->last_frame();
  // The replay must export exactly the host's frame, or its timings are of
  // some other work.
  if (!(frame == host_frame)) ++t.oracle_failures;

  std::vector<ads::Rect> damage;
  const bool have_previous = previous_.width() == frame.width() &&
                             previous_.height() == frame.height();
  if (have_previous) {
    Timed s(log, "replay.scroll");
    for (const ads::Window& w : wm_.shared_windows()) {
      const ads::Rect area = ads::intersect(w.frame, frame.bounds());
      const auto match = ads::detect_scroll(previous_, frame, area);
      if (!match) continue;
      const ads::Rect dest = match->source.translated(0, match->dy);
      ads::Image moved = previous_;
      moved.move_rect(match->source, {dest.left, dest.top});
      if (ads::hash_rect(moved, dest) != ads::hash_rect(frame, dest)) continue;
      previous_ = std::move(moved);
      ++t.move_rects;
    }
    t.scroll_ns += s.stop();
    Timed d(log, "replay.damage");
    damage = ads::diff_rects(previous_, frame, 32);
    t.damage_ns += d.stop();
  } else {
    damage = {frame.bounds()};
  }
  previous_ = frame;
  for (const ads::Rect& r : damage) t.damage_px += static_cast<std::uint64_t>(r.area());
  if (!codec) return;

  ++t.codec_frames;
  for (const Cohort& c : cohorts_) {
    const ads::Image* src = &frame;
    ads::Image scaled;
    std::vector<ads::Rect> bands;
    if (c.scale_shift != 0) {
      const ads::transcode::OutputGeometry geom{c.scale_shift, {}, false};
      {
        Timed s(log, "replay.scale");
        scaled = ads::transcode::scale_frame(frame, geom);
        t.scale_ns += s.stop();
      }
      src = &scaled;
      ads::Region out;
      for (const ads::Rect& r : damage) {
        const ads::Rect m = ads::transcode::map_rect_to_output(geom, frame.bounds(), r);
        if (!m.empty()) out.add(m);
      }
      out.simplify();
      bands = band_split(out.rects());
    } else {
      bands = band_split(damage);
    }
    for (const ads::Rect& b : bands) encode_band(c, src->crop(b), b, log, t);
  }
}

void StageReplay::encode_band(const Cohort& c, const ads::Image& band, const ads::Rect& r,
                              SpanLog& log, ReplayTotals& t) {
  bool ok = true;
  if (c.pt == ads::ContentPt::kPng) {
    const ads::PngOptions opts;
    {
      Timed e(log, "replay.png_encode");
      ads::png_encode_into(band, opts, encoded_, scratch_);
      t.png_encode_ns += e.stop();
    }
    t.png_bytes += encoded_.size();
    {
      Timed d(log, "replay.png_decode");
      const auto img = ads::png_decode(encoded_);
      t.png_decode_ns += d.stop();
      ok = ok && img.ok() && *img == band;
    }
    ok = ok && libpng_equals(encoded_, band) && inflate_idat(encoded_, filtered_);
    if (ok) {
      // The LZ77 + Huffman share of the encode, on the PNG's own filtered
      // scanlines (recovered with the system zlib).
      Timed z(log, "replay.png_deflate");
      ads::deflate_compress_into(filtered_, opts.deflate, deflated_, scratch_.deflate);
      t.png_deflate_ns += z.stop();
    }
  } else {
    const ads::DctOptions opts;
    {
      Timed e(log, "replay.dct_encode");
      ads::dct_encode_into(band, opts, encoded_, scratch_);
      t.dct_encode_ns += e.stop();
    }
    t.dct_bytes += encoded_.size();
    {
      Timed d(log, "replay.dct_decode");
      const auto img = ads::dct_decode(encoded_);
      t.dct_decode_ns += d.stop();
      ok = ok && img.ok() && img->width() == band.width() && img->height() == band.height();
    }
    ok = ok && dct_stream_inflates(encoded_);
  }
  ++t.bands_checked;
  if (!ok) ++t.oracle_failures;

  ads::RegionUpdate msg;
  msg.content_pt = static_cast<std::uint8_t>(c.pt);
  msg.left = static_cast<std::uint32_t>(r.left);
  msg.top = static_cast<std::uint32_t>(r.top);
  msg.content = encoded_;
  stream_.clear();
  Timed f(log, "replay.fragment");
  const auto spans = ads::fragment_region_update_into(msg, 1200, stream_);
  t.fragment_ns += f.stop();
  ++t.fragment_calls;
  t.fragments += spans.size();
}

}  // namespace sharebench
