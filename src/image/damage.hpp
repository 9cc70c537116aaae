// Damage detection: the AH-side substitute for an OS damage/mirror-driver
// interface. The framebuffer is divided into fixed-size tiles; each tile of
// the new frame is hashed against the same tile of the previous one, and
// tiles whose hash changed are merged into dirty rectangles, which become
// RegionUpdate messages.
#pragma once

#include <cstdint>
#include <vector>

#include "image/geometry.hpp"
#include "image/image.hpp"

namespace ads {

/// 64-bit hash of a pixel rectangle: four interleaved FNV-1a lanes (pixel i
/// updates lane i&3 within its row) folded together with the pixel count.
/// The stripe makes the multiply chains independent so the kernel
/// vectorises; only hash *equality* is meaningful to callers.
std::uint64_t hash_rect(const Image& img, const Rect& r);

/// Tile diff of two images: the areas where `after` differs from `before`,
/// merged into disjoint rectangles at `tile_size` granularity and clipped to
/// the frame. Images of different sizes (a first frame against an empty
/// one, or a resize) report all of `after` as damaged.
std::vector<Rect> diff_rects(const Image& before, const Image& after,
                             std::int64_t tile_size = 32);

}  // namespace ads
