// E9 — compression substrate ablations.
//
// The design decisions DESIGN.md calls out for the from-scratch codec
// stack, measured on a corpus of screen tiles (PNG-filtered scanlines of
// each workload):
//   * DEFLATE level sweep (LZ77 search depth / lazy matching)
//   * forced block type: stored vs fixed vs dynamic Huffman
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "codec/deflate.hpp"
#include "codec/inflate.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

/// Corpus: raw RGBA bytes of a mixed screen (terminal + document + video).
Bytes corpus() {
  static const Bytes data = [] {
    Bytes out;
    for (const char* workload : {"terminal", "document", "video"}) {
      const Image frame = workload_frame(workload, 256, 192);
      for (const Pixel& p : frame.pixels()) {
        out.push_back(p.r);
        out.push_back(p.g);
        out.push_back(p.b);
        out.push_back(p.a);
      }
    }
    return out;
  }();
  return data;
}

void deflate_levels(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const Bytes input = corpus();
  Bytes compressed;
  for (auto _ : state) {
    compressed = deflate_compress(input, {.level = level});
    benchmark::DoNotOptimize(compressed);
  }
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(compressed.size());
  state.counters["bytes"] = static_cast<double>(compressed.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  record_counters("deflate", "E9/deflate/level/" + std::to_string(level),
                  state.counters);
}

void deflate_block_types(benchmark::State& state) {
  const auto block = static_cast<DeflateOptions::Block>(state.range(0));
  const Bytes input = corpus();
  Bytes compressed;
  for (auto _ : state) {
    compressed = deflate_compress(input, {.level = 6, .block = block});
    benchmark::DoNotOptimize(compressed);
  }
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(compressed.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  record_counters("deflate",
                  "E9/deflate/block_type/" + std::to_string(state.range(0)),
                  state.counters);
}

void inflate_speed(benchmark::State& state) {
  const Bytes input = corpus();
  const Bytes compressed = deflate_compress(input, {.level = 6});
  for (auto _ : state) {
    auto out = inflate(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}

BENCHMARK(deflate_levels)
    ->Name("E9/deflate/level")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deflate_block_types)
    ->Name("E9/deflate/block_type")  // 1=stored, 2=fixed, 3=dynamic
    ->Arg(static_cast<int>(DeflateOptions::Block::kStored))
    ->Arg(static_cast<int>(DeflateOptions::Block::kFixed))
    ->Arg(static_cast<int>(DeflateOptions::Block::kDynamic))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(inflate_speed)->Name("E9/inflate")->Unit(benchmark::kMillisecond);

}  // namespace
