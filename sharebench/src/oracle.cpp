#include "oracle.hpp"

#include <png.h>
#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace sharebench {

bool libpng_equals(ads::BytesView png, const ads::Image& want) {
  png_image img;
  std::memset(&img, 0, sizeof img);
  img.version = PNG_IMAGE_VERSION;
  if (!png_image_begin_read_from_memory(&img, png.data(), png.size())) return false;
  img.format = PNG_FORMAT_RGBA;
  if (img.width != static_cast<png_uint_32>(want.width()) ||
      img.height != static_cast<png_uint_32>(want.height())) {
    png_image_free(&img);
    return false;
  }
  std::vector<std::uint8_t> rgba(PNG_IMAGE_SIZE(img));
  if (!png_image_finish_read(&img, nullptr, rgba.data(), 0, nullptr)) return false;
  const auto px = want.pixels();
  for (std::size_t i = 0; i < px.size(); ++i) {
    const std::uint8_t* p = &rgba[i * 4];
    if (p[0] != px[i].r || p[1] != px[i].g || p[2] != px[i].b || p[3] != px[i].a) {
      return false;
    }
  }
  return true;
}

namespace {

std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

}  // namespace

bool zlib_inflates(ads::BytesView stream, std::vector<std::uint8_t>& out) {
  out.clear();
  z_stream zs;
  std::memset(&zs, 0, sizeof zs);
  if (inflateInit(&zs) != Z_OK) return false;
  zs.next_in = const_cast<Bytef*>(stream.data());
  zs.avail_in = static_cast<uInt>(stream.size());
  std::uint8_t chunk[1 << 15];
  int rc = Z_OK;
  while (rc == Z_OK) {
    zs.next_out = chunk;
    zs.avail_out = sizeof chunk;
    rc = inflate(&zs, Z_NO_FLUSH);
    out.insert(out.end(), chunk, chunk + (sizeof chunk - zs.avail_out));
    if (rc == Z_BUF_ERROR && zs.avail_in == 0) break;
  }
  inflateEnd(&zs);
  return rc == Z_STREAM_END && zs.avail_in == 0;
}

bool inflate_idat(ads::BytesView png, std::vector<std::uint8_t>& filtered) {
  std::vector<std::uint8_t> idat;
  std::size_t pos = 8;  // past the signature
  while (pos + 12 <= png.size()) {
    const std::uint32_t len = be32(&png[pos]);
    if (len > png.size() - pos - 12) return false;
    if (std::memcmp(&png[pos + 4], "IDAT", 4) == 0) {
      idat.insert(idat.end(), png.begin() + static_cast<std::ptrdiff_t>(pos + 8),
                  png.begin() + static_cast<std::ptrdiff_t>(pos + 8 + len));
    }
    pos += 12 + len;
  }
  return !idat.empty() && zlib_inflates(idat, filtered);
}

bool dct_stream_inflates(ads::BytesView dct) {
  constexpr std::size_t kHeader = 9;  // u32 width | u32 height | u8 quality
  if (dct.size() <= kHeader) return false;
  std::vector<std::uint8_t> coeffs;
  return zlib_inflates(dct.subspan(kHeader), coeffs) && !coeffs.empty();
}

ads::Image box_halve(const ads::Image& src) {
  const std::int64_t w = (src.width() + 1) / 2;
  const std::int64_t h = (src.height() + 1) / 2;
  ads::Image out(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    const std::int64_t y0 = 2 * y;
    const std::int64_t y1 = std::min(2 * y + 1, src.height() - 1);
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t x0 = 2 * x;
      const std::int64_t x1 = std::min(2 * x + 1, src.width() - 1);
      const ads::Pixel a = src.at(x0, y0), b = src.at(x1, y0);
      const ads::Pixel c = src.at(x0, y1), d = src.at(x1, y1);
      const auto avg = [](int p, int q, int r, int s) {
        return static_cast<std::uint8_t>((p + q + r + s + 2) / 4);
      };
      out.set(x, y, {avg(a.r, b.r, c.r, d.r), avg(a.g, b.g, c.g, d.g),
                     avg(a.b, b.b, c.b, d.b), avg(a.a, b.a, c.a, d.a)});
    }
  }
  return out;
}

double squared_error(const ads::Image& a, const ads::Image& b) {
  const std::int64_t w = std::min(a.width(), b.width());
  const std::int64_t h = std::min(a.height(), b.height());
  double sse = 0;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const ads::Pixel p = a.at(x, y), q = b.at(x, y);
      const double dr = p.r - q.r, dg = p.g - q.g, db = p.b - q.b;
      sse += dr * dr + dg * dg + db * db;
    }
  }
  return sse;
}

double psnr_from_sse(double sse, double samples) {
  if (sse == 0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 * samples / sse);
}

double psnr_db(const ads::Image& a, const ads::Image& b) {
  const std::int64_t w = std::min(a.width(), b.width());
  const std::int64_t h = std::min(a.height(), b.height());
  return psnr_from_sse(squared_error(a, b), 3.0 * static_cast<double>(w * h));
}

bool replica_equals(const ads::Image& replica, const ads::Image& want) {
  if (replica.width() < want.width() || replica.height() < want.height()) return false;
  for (std::int64_t y = 0; y < want.height(); ++y) {
    const auto r = replica.row(y).first(static_cast<std::size_t>(want.width()));
    const auto w = want.row(y);
    if (!std::equal(r.begin(), r.end(), w.begin())) return false;
  }
  return true;
}

}  // namespace sharebench
