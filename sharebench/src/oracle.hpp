// Output oracle: computations made apart from the ads codecs and scaler.
// PNG decoding goes through the system libpng, zlib streams through the
// system zlib, and the 2x2 box filter and PSNR are written out here.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "util/bytes.hpp"

namespace sharebench {

/// Decode `png` with libpng and compare it pixel by pixel with `want`.
bool libpng_equals(ads::BytesView png, const ads::Image& want);

/// Concatenate the IDAT chunks of `png` and inflate them with the system
/// zlib: the PNG's filtered scanlines. False when the stream is bad.
bool inflate_idat(ads::BytesView png, std::vector<std::uint8_t>& filtered);

/// Inflate one zlib stream with the system zlib, checking its Adler-32.
bool zlib_inflates(ads::BytesView stream, std::vector<std::uint8_t>& out);

/// The DCT payload's coefficient stream (after its 9-byte header) inflates
/// with the system zlib.
bool dct_stream_inflates(ads::BytesView dct);

/// 2x2 box filter, rounding half up, replicating the last row/column on
/// odd extents: the reference for half-geometry (quarter-area) viewers.
ads::Image box_halve(const ads::Image& src);

/// Sum of squared RGB differences over the images' common extent.
double squared_error(const ads::Image& a, const ads::Image& b);

/// PSNR in dB from a squared error over `samples` channel values; +inf
/// when the error is zero.
double psnr_from_sse(double sse, double samples);

/// PSNR in dB over the RGB channels; +inf for identical images.
double psnr_db(const ads::Image& a, const ads::Image& b);

/// Pixel-exact equality of `replica` cropped to `want`'s extent.
bool replica_equals(const ads::Image& replica, const ads::Image& want);

}  // namespace sharebench
