// sofia-report: one-command reproduction summary — runs the headline
// experiments (Table I, the ADPCM benchmark, the security analysis, a
// fault campaign) and prints a compact paper-vs-measured table. The full
// sweeps live in sofia_sweep and the bench/ binaries; this is the "is the
// reproduction healthy?" view.
//
//   sofia_report [--quick] [--threads N]
#include <algorithm>
#include <cstdio>
#include <string>

#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "scheme/scheme.hpp"
#include "security/demos.hpp"
#include "security/forgery.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  bool quick = false;
  std::uint32_t threads = 1;
  std::string backend(sim::kDefaultBackend);
  std::string scheme(scheme::kDefaultScheme);

  cli::Parser parser("sofia_report",
                     "one-command paper-vs-measured health report");
  parser.flag("--quick", quick, "smaller workloads and fault campaign")
      .option("--threads", threads, "N",
              "worker threads for the measurements (default 1)")
      .choice("--backend", backend, sim::backend_names(),
              "execution backend for the ADPCM measurement (functional "
              "checks integrity only; its cycle numbers are not timing)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "protection scheme for the ADPCM measurement (the paper "
              "targets are sofia-cbcmac numbers)");
  parser.parse_or_exit(argc, argv);
  if (threads < 1) return parser.fail("--threads must be >= 1");
  const std::uint32_t samples = quick ? 1024 : 8192;
  const auto keys = bench::bench_keys();
  const hw::HwModel model;

  std::printf("SOFIA reproduction report\n");
  std::printf("=========================\n\n");

  // --- Table I ---------------------------------------------------------------
  const auto vanilla = model.vanilla();
  const auto sofia_hw = model.sofia(2);
  std::printf("%-44s %16s %16s\n", "experiment", "paper", "measured");
  bench::print_rule(80);
  std::printf("%-44s %16s %16.0f\n", "Table I vanilla slices", "5889",
              vanilla.slices);
  std::printf("%-44s %16s %16.0f\n", "Table I SOFIA slices", "7551",
              sofia_hw.slices);
  std::printf("%-44s %16s %15.1f%%\n", "Table I area overhead", "+28.2%",
              hw::overhead_pct(vanilla.slices, sofia_hw.slices));
  std::printf("%-44s %16s %16.1f\n", "Table I SOFIA clock (MHz)", "50.1",
              sofia_hw.clock_mhz);

  // --- security analytics ------------------------------------------------------
  std::printf("%-44s %16s %16.0f\n", "SI forgery years (64b, 8cyc, 50MHz)",
              "46795", security::forgery_years(64, 8, 50e6));
  std::printf("%-44s %16s %16.0f\n", "CFI attack years (16 cyc/trial)", "93590",
              security::forgery_years(64, 16, 50e6));

  // --- ADPCM (through the sweep driver) ----------------------------------------
  driver::SweepSpec adpcm;
  adpcm.name = "report-adpcm";
  adpcm.workloads = {"adpcm_encode", "adpcm_decode"};
  adpcm.size_override = samples;
  adpcm.base_seed = 1;  // the paper-comparison waveform
  adpcm.configs = {driver::paper_default_config()};
  adpcm = driver::with_backend(std::move(adpcm), backend);
  adpcm = driver::with_scheme(std::move(adpcm), scheme);
  const auto sweep = driver::run_sweep(adpcm, threads);
  if (!sweep.all_ok()) {
    for (const auto& job : sweep.jobs)
      if (!job.ok)
        std::fprintf(stderr, "sofia_report: %s failed: %s\n",
                     job.job.workload.c_str(), job.error.c_str());
    return 1;
  }
  double text_ratio = 0;
  double cyc = 0;
  double time_ovh = 0;
  const double n = static_cast<double>(sweep.jobs.size());
  for (const auto& job : sweep.jobs) {
    text_ratio += job.m.size_ratio() / n;
    cyc += job.m.cycle_overhead_pct() / n;
    time_ovh += job.m.time_overhead_pct(model, 2) / n;
  }
  std::printf("%-44s %16s %15.2fx\n", "ADPCM text expansion", "2.41x", text_ratio);
  // A backend without cycle accuracy reports instruction counts in
  // stats.cycles; presenting those next to the paper's timing targets
  // would be a lie, so the timing rows are suppressed.
  const bool cycle_accurate =
      sim::make_backend(backend)->capabilities().cycle_accurate;
  if (cycle_accurate) {
    std::printf("%-44s %16s %15.1f%%\n",
                "ADPCM cycle overhead (see EXPERIMENTS E3)", "+13.7%", cyc);
    std::printf("%-44s %16s %15.1f%%\n", "ADPCM exec-time overhead", "+110%",
                time_ovh);
  } else {
    std::printf("%-44s %16s %16s\n", "ADPCM cycle overhead (see EXPERIMENTS E3)",
                "+13.7%", "n/a");
    std::printf("%-44s %16s %16s\n", "ADPCM exec-time overhead", "+110%",
                "n/a");
    std::printf("%-44s\n",
                "  (backend is not cycle-accurate; integrity checked only)");
  }

  // --- attack round-trip ---------------------------------------------------------
  const auto rop = security::run_rop_demo(keys);
  const bool rop_ok =
      rop.vanilla_attacked.output.find("6666") != std::string::npos &&
      rop.sofia_attacked.status == sim::RunResult::Status::kReset;
  std::printf("%-44s %16s %16s\n", "ROP: vanilla breached / SOFIA reset",
              "detect", rop_ok ? "ok" : "FAIL");
  const auto jop = security::run_jop_demo(keys);
  const bool jop_ok =
      jop.vanilla_attacked.output.find("7777") != std::string::npos &&
      jop.sofia_attacked.output.empty();
  std::printf("%-44s %16s %16s\n", "JOP: vanilla breached / SOFIA trapped",
              "detect", jop_ok ? "ok" : "FAIL");

  // Fetch faults: one kFetchFault record per trial, its index drawn over
  // everything the SOFIA device fetches (instruction and MAC words).
  const auto fault_target = campaign::Target::from_source(
      "main:\n li r2, 40\nloop:\n addi r1, r1, 3\n addi r2, r2, -1\n bnez r2, "
      "loop\n li r10, 0xFFFF0008\n sw r1, 0(r10)\n halt\n",
      pipeline::DeviceProfile::with_keys(keys),
      campaign::CampaignSpec{}.donor_omega);
  const auto& clean_stats = fault_target.clean_run().stats;
  const std::uint64_t span =
      std::max<std::uint64_t>(1, clean_stats.fetch_words + clean_stats.mac_words);
  const std::uint64_t fault_trials = quick ? 40 : 150;
  std::uint64_t detected = 0;
  Rng rng(1);
  for (std::uint64_t t = 0; t < fault_trials; ++t) {
    const std::uint64_t index = rng.next_below(span);
    const auto run = fault_target.run(
        {{campaign::MutationKind::kFetchFault, index, rng.next_below(32)}});
    if (run.status == sim::RunResult::Status::kReset) ++detected;
  }
  std::printf("%-44s %16s %10llu/%llu\n", "fetch faults detected (SOFIA)",
              "all", static_cast<unsigned long long>(detected),
              static_cast<unsigned long long>(fault_trials));
  bench::print_rule(80);
  std::printf("\nDetails: EXPERIMENTS.md; full sweeps: sofia_sweep + build/bench/*.\n");
  return (rop_ok && jop_ok && detected == fault_trials) ? 0 : 1;
}
