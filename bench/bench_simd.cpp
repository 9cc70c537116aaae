// E13s — SIMD hot-kernel microbenches (the band-encode effect is measured
// end to end by sharebench's codec.* layer metrics).
//
// Claims under test:
//  * the runtime-dispatched kernels (util/simd.hpp) beat their scalar
//    references on AVX2 hardware for the datapath's hot loops — by well
//    over an order of magnitude for the bulk byte-stream kernels
//    (Adler-32 / CRC-32 absorption, PNG filter selection) and by honest
//    but smaller margins for the arithmetic kernels (DCT forward+quantise
//    ~1.9x; 4-lane FNV tile hashing ~1.3x, bounded by AVX2's lack of a
//    64-bit lane multiply against an already ILP-saturated scalar loop);
//  * dispatch overhead is negligible (the dispatched call with scalar
//    forced via ADS_SIMD=scalar tracks the direct scalar reference).
//
// Each entry records ns for the scalar reference and the dispatched kernel
// plus their ratio; on machines without AVX2 (or with ADS_SIMD=OFF builds)
// the ratio honestly reports ~1x and the "level" counter says why.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.range(0, 255));
  return out;
}

/// Median-of-reps wall time of `fn` (which must consume its own inputs).
template <typename Fn>
double measure_ns(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return percentile(samples, 0.5);
}

/// Run one scalar-vs-dispatched pair and file the result under
/// `E13s/<kernel>`.
template <typename ScalarFn, typename SimdFn>
void run_pair(benchmark::State& state, const std::string& name, double work_bytes,
              ScalarFn&& scalar, SimdFn&& simd_fn) {
  double ns_scalar = 0;
  double ns_simd = 0;
  for (auto _ : state) {
    ns_scalar = measure_ns(scalar, 9);
    ns_simd = measure_ns(simd_fn, 9);
  }
  state.counters["ns_scalar"] = ns_scalar;
  state.counters["ns_simd"] = ns_simd;
  state.counters["speedup"] = ns_simd > 0 ? ns_scalar / ns_simd : 0.0;
  state.counters["gib_per_s_simd"] =
      ns_simd > 0 ? work_bytes / ns_simd * (1e9 / (1 << 30)) : 0.0;
  state.counters["level"] = static_cast<double>(simd::active_level());
  json_report("simd")
      .record(name, {{"ns_scalar", ns_scalar},
                     {"ns_simd", ns_simd},
                     {"speedup", state.counters["speedup"]},
                     {"gib_per_s_simd", state.counters["gib_per_s_simd"]},
                     {"level", state.counters["level"]}});
}

constexpr std::size_t kBulk = 256 * 1024;  // checksum working set
constexpr std::size_t kTilePixels = 128 * 128;
constexpr std::size_t kRowStride = 1280 * 4;  // one 1280-wide RGBA scanline

void bench_adler32(benchmark::State& state) {
  const auto buf = random_bytes(kBulk, 0xE13A);
  run_pair(
      state, "E13s/adler32", kBulk,
      [&] {
        std::uint32_t s1 = 1, s2 = 0;
        simd::adler32_absorb_scalar(s1, s2, buf.data(), buf.size());
        benchmark::DoNotOptimize(s1 + s2);
      },
      [&] {
        std::uint32_t s1 = 1, s2 = 0;
        simd::adler32_absorb(s1, s2, buf.data(), buf.size());
        benchmark::DoNotOptimize(s1 + s2);
      });
}

void bench_crc32(benchmark::State& state) {
  const auto buf = random_bytes(kBulk, 0xE13C);
  run_pair(
      state, "E13s/crc32", kBulk,
      [&] {
        auto crc = simd::crc32_absorb_scalar(0xFFFFFFFFu, buf.data(), buf.size());
        benchmark::DoNotOptimize(crc);
      },
      [&] {
        auto crc = simd::crc32_absorb(0xFFFFFFFFu, buf.data(), buf.size());
        benchmark::DoNotOptimize(crc);
      });
}

void bench_hash_tile(benchmark::State& state) {
  const auto buf = random_bytes(kTilePixels * 4, 0xE13F);
  run_pair(
      state, "E13s/hash_tile", static_cast<double>(buf.size()),
      [&] {
        std::uint64_t lanes[4] = {1, 2, 3, 4};
        simd::fnv4_absorb_scalar(lanes, buf.data(), kTilePixels);
        benchmark::DoNotOptimize(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]);
      },
      [&] {
        std::uint64_t lanes[4] = {1, 2, 3, 4};
        simd::fnv4_absorb(lanes, buf.data(), kTilePixels);
        benchmark::DoNotOptimize(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]);
      });
}

void bench_png_filter_select(benchmark::State& state) {
  // The adaptive-filter inner loop: try all 5 filters on a scanline, score
  // each with the abs-sum heuristic (same shape as png_encode_into).
  const auto raster = random_bytes(2 * kRowStride, 0xE139);
  const std::uint8_t* row = raster.data() + kRowStride;
  const std::uint8_t* prior = raster.data();
  std::vector<std::uint8_t> trial(kRowStride);
  run_pair(
      state, "E13s/png_filter_select", 5.0 * kRowStride,
      [&] {
        std::uint64_t best = ~0ull;
        for (int type = 0; type < 5; ++type) {
          simd::png_filter_row_scalar(type, row, prior, kRowStride, 4,
                                      trial.data());
          best = std::min(best,
                          simd::png_abs_sum_scalar(trial.data(), kRowStride));
        }
        benchmark::DoNotOptimize(best);
      },
      [&] {
        std::uint64_t best = ~0ull;
        for (int type = 0; type < 5; ++type) {
          simd::png_filter_row(type, row, prior, kRowStride, 4, trial.data());
          best = std::min(best, simd::png_abs_sum(trial.data(), kRowStride));
        }
        benchmark::DoNotOptimize(best);
      });
}

void bench_dct_block(benchmark::State& state) {
  // Forward DCT + quantise over a screenful of 8x8 blocks.
  constexpr int kBlocks = 1024;
  Prng rng(0xE13D);
  std::vector<double> blocks(kBlocks * 64);
  for (auto& v : blocks) v = static_cast<double>(rng.range(-12800, 12700)) / 100.0;
  double basis[64];
  double basis_t[64];
  for (int u = 0; u < 8; ++u) {
    for (int x = 0; x < 8; ++x) {
      basis[u * 8 + x] =
          0.5 * std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0);
      basis_t[x * 8 + u] = basis[u * 8 + x];
    }
  }
  int q[64];
  int zigzag[64];
  for (int i = 0; i < 64; ++i) {
    q[i] = 1 + (i * 7) % 97;
    zigzag[i] = i;
  }
  run_pair(
      state, "E13s/dct_block", kBlocks * 64.0 * sizeof(double),
      [&] {
        double freq[64];
        int quant[64];
        for (int b = 0; b < kBlocks; ++b) {
          simd::fdct8x8_scalar(&blocks[static_cast<std::size_t>(b) * 64], freq,
                               basis, basis_t);
          simd::dct_quantise_scalar(freq, q, zigzag, quant);
          benchmark::DoNotOptimize(quant[0]);
        }
      },
      [&] {
        double freq[64];
        int quant[64];
        for (int b = 0; b < kBlocks; ++b) {
          simd::fdct8x8(&blocks[static_cast<std::size_t>(b) * 64], freq, basis,
                        basis_t);
          simd::dct_quantise(freq, q, zigzag, quant);
          benchmark::DoNotOptimize(quant[0]);
        }
      });
}

void register_all() {
  benchmark::RegisterBenchmark("E13s/adler32", bench_adler32)->Iterations(3);
  benchmark::RegisterBenchmark("E13s/crc32", bench_crc32)->Iterations(3);
  benchmark::RegisterBenchmark("E13s/hash_tile", bench_hash_tile)->Iterations(3);
  benchmark::RegisterBenchmark("E13s/png_filter_select", bench_png_filter_select)
      ->Iterations(3);
  benchmark::RegisterBenchmark("E13s/dct_block", bench_dct_block)->Iterations(3);
}

const int registered = (register_all(), 0);

}  // namespace
