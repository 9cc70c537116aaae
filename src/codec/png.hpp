// PNG encoder/decoder (subset of RFC 2083 sufficient for screen remoting):
// the encoder writes 8-bit RGBA with filters 0-4 chosen per row by minimum
// sum of absolute differences, single IDAT, no interlacing; the decoder also
// reads 8-bit RGB. Built on our own zlib/DEFLATE implementation.
#pragma once

#include "codec/deflate.hpp"
#include "codec/video_codec.hpp"

namespace ads {

struct PngOptions {
  DeflateOptions deflate;
};

Bytes png_encode(const Image& img, const PngOptions& opts = {});
/// As png_encode, but writes into `out` (cleared first, capacity kept) and
/// reuses `scratch` for the raster/filter/deflate working buffers. Output
/// bytes are identical to png_encode.
void png_encode_into(const Image& img, const PngOptions& opts, Bytes& out,
                     EncodeScratch& scratch);
Result<Image> png_decode(BytesView data);

class PngCodec final : public ImageCodec {
 public:
  explicit PngCodec(PngOptions opts = {}) : opts_(opts) {}

  ContentPt payload_type() const override { return ContentPt::kPng; }
  std::string_view name() const override { return "png"; }
  bool lossless() const override { return true; }
  Bytes encode(const Image& img) const override { return png_encode(img, opts_); }
  void encode_into(const Image& img, Bytes& out, EncodeScratch& scratch) const override {
    png_encode_into(img, opts_, out, scratch);
  }
  Result<Image> decode(BytesView data) const override { return png_decode(data); }

 private:
  PngOptions opts_;
};

}  // namespace ads
