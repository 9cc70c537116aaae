// sharebench: end-to-end application/desktop-sharing benchmark.
//
//   sharebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <file>]
//   sharebench --smoke
//
// Prints a readable table of the run's metrics and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. --smoke runs every workload for a
// few frames, traced, with every output check, and exits non-zero when a
// check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sharebench: %s\n"
               "usage: sharebench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n"
               "       sharebench --smoke\n",
               why);
  std::exit(2);
}

void print(const sharebench::RunConfig& cfg, const sharebench::RunResult& r) {
  std::printf("# %s seed=%llu trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0);
  for (const auto& m : r.metrics) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : r.problems) std::printf("! %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  sharebench::RunConfig cfg;
  bool smoke = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--spans") {
      cfg.spans_path = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  try {
    if (smoke) {
      bool ok = true;
      for (const std::string& name : sharebench::workload_names()) {
        sharebench::RunConfig c;
        c.workload = name;
        c.smoke = true;
        c.trace = true;
        const sharebench::RunResult r = sharebench::run_workload(c);
        print(c, r);
        ok = ok && r.correct && r.failed == 0;
      }
      std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
      return ok ? 0 : 1;
    }
    if (!have_workload) usage("--workload is required");
    const sharebench::RunResult r = sharebench::run_workload(cfg);
    print(cfg, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sharebench: %s\n", e.what());
    return 2;
  }
}
