// Fault-injection campaign (the paper's stated future work): single
// transient bit flips on the instruction-fetch path, classified per core.
// On SOFIA every fault that isn't architecturally masked must end in a
// reset; on the vanilla core faults silently corrupt program output. Each
// trial is one campaign kFetchFault record run through campaign::Target.
// Exits 1 when any SOFIA trial is corrupted or ends in another status.
#include <algorithm>
#include <cstdio>

#include "campaign/campaign.hpp"
#include "support/measure.hpp"

namespace {

using namespace sofia;

struct FaultTally {
  std::uint64_t trials = 0;
  std::uint64_t detected = 0;   ///< device reset
  std::uint64_t masked = 0;     ///< run completed with clean output
  std::uint64_t corrupted = 0;  ///< run completed with wrong output
  std::uint64_t other = 0;      ///< faults/max-cycles
};

/// One random fetch fault per trial, drawn (index, bit) from `rng`. SOFIA
/// fetches MAC words too, so its index range spans the raw fetch volume:
/// faults land uniformly over everything the device reads.
FaultTally inject(campaign::Target& target, bool sofia_core,
                  std::uint64_t trials, Rng& rng) {
  const sim::RunResult& clean =
      sofia_core ? target.clean_run() : target.session().run_vanilla();
  const std::uint64_t span =
      clean.stats.fetch_words + (sofia_core ? clean.stats.mac_words : 0);
  FaultTally tally;
  tally.trials = trials;
  for (std::uint64_t t = 0; t < trials; ++t) {
    const std::uint64_t index = rng.next_below(std::max<std::uint64_t>(1, span));
    const campaign::MutationRecord fault = {
        {campaign::MutationKind::kFetchFault, index, rng.next_below(32)}};
    const auto run =
        sofia_core ? target.run(fault) : target.run_vanilla(fault);
    switch (campaign::classify(run, clean.output)) {
      case campaign::TrialClass::kDetected: ++tally.detected; break;
      case campaign::TrialClass::kHarmless: ++tally.masked; break;
      case campaign::TrialClass::kEscaped:
        ++(run.ok() ? tally.corrupted : tally.other);
        break;
    }
  }
  return tally;
}

}  // namespace

int main() {
  const auto keys = bench::bench_keys();
  const char* program = R"(
main:
  li r1, 0
  li r2, 24
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
)";
  std::printf("Transient instruction-fetch fault campaign (1 bit flip/run)\n");
  bench::print_rule(84);
  std::printf("%-10s %8s %10s %10s %12s %8s\n", "core", "trials", "detected",
              "masked", "corrupted", "other");
  bench::print_rule(84);
  // One session covers both cores (paper §III per-pair CTR, as in every
  // measurement); the donor build is unused here.
  auto target = campaign::Target::from_source(
      program, pipeline::DeviceProfile::with_keys(keys),
      campaign::CampaignSpec{}.donor_omega);
  Rng rng(7777);
  bool sofia_clean = false;
  for (const bool sofia_core : {false, true}) {
    const auto tally = inject(target, sofia_core, /*trials=*/400, rng);
    if (sofia_core) sofia_clean = tally.corrupted + tally.other == 0;
    std::printf("%-10s %8llu %10llu %10llu %12llu %8llu\n",
                sofia_core ? "SOFIA" : "vanilla",
                static_cast<unsigned long long>(tally.trials),
                static_cast<unsigned long long>(tally.detected),
                static_cast<unsigned long long>(tally.masked),
                static_cast<unsigned long long>(tally.corrupted),
                static_cast<unsigned long long>(tally.other));
  }
  bench::print_rule(84);
  std::printf("SOFIA detects every non-masked fetch fault: a flipped bit never\n"
              "survives decryption + MAC verification, so fault attacks on the\n"
              "instruction stream reduce to MAC forgery (46,795-year expected cost).\n");
  return sofia_clean ? 0 : 1;
}
