// sofia_perfbench: the repository benchmark. Runs one workload for a
// given time from a workload seed, checks the outputs, prints a report and,
// as its last line, one JSON object with the attempted / failed counts and
// the metrics (end-to-end without --trace, per-layer with --trace 1).
//
//   sofia_perfbench --workload sweep-scheme --seed 1 --seconds 10 --trace 0
//
// perfbench/run.py builds this binary and adds the set-up time metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "sofia_perfbench: %s\n"
               "usage: sofia_perfbench --workload sweep-scheme|campaign-full|install-lint\n"
               "         --seed N --seconds S --trace 0|1 --workdir DIR\n"
               "         [--setup-only] [--smoke] [--inject-wrong-expected]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed" || arg == "--seconds") {
      const std::string v = value();
      try {
        if (arg == "--seed") o.seed = std::stoull(v);
        else o.seconds = std::stod(v);
      } catch (const std::logic_error&) {
        usage(("bad number for " + arg + ": " + v).c_str());
      }
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--inject-wrong-expected") {
      o.inject_wrong_expected = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.workdir.empty()) usage("--workdir is required");
  o.trace_dir = o.workdir / "traces";
  // Cache stores of this process live in a directory of their own.
  o.workdir /= "run-" + std::to_string(::getpid());
  return o;
}

/// A fixed integer loop that does not touch the code under test: its time
/// follows the speed of the host's core, so the report of a run shows
/// whether the host, rather than the program, was slower. Median of 5, ms.
double host_reference_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

void print_json_number(double v) {
  if (std::isfinite(v))
    std::printf("%.17g", v);
  else
    std::printf("null");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Outcome out;
  try {
    if (opts.workload == "sweep-scheme") {
      out = run_sweep_scheme(opts);
    } else if (opts.workload == "campaign-full") {
      out = run_campaign_full(opts);
    } else if (opts.workload == "install-lint") {
      out = run_install_lint(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sofia_perfbench: %s\n", e.what());
    std::filesystem::remove_all(opts.workdir);
    return 1;
  }
  std::filesystem::remove_all(opts.workdir);
  if (opts.setup_only) return 0;

  std::printf("host_ref_ms (fixed integer loop, right after the run) %.4f\n",
              host_reference_ms());

  std::printf("fail_ratio = %llu / %llu\n", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& e : out.metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", e.name.c_str());
    print_json_number(e.value);
    std::printf(", \"unit\": \"%s\"}", e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
