// Attack demo: what SOFIA detects, narrated.
//
//   * code injection  — flip/patch ciphertext bits;
//   * code relocation — move valid ciphertext to another address;
//   * version replay  — graft a block from a different program version;
//   * code reuse      — smash a return address toward a store gadget
//                       (succeeds on the vanilla core, resets on SOFIA).
//
// Build & run:  ./build/examples/attack_demo
#include <cstdio>

#include "campaign/campaign.hpp"
#include "security/demos.hpp"

namespace {

void narrate(const sofia::campaign::Target& target,
             const sofia::campaign::Mutation& m) {
  const auto run = target.run({m});
  std::printf("  %-42s -> ", m.describe().c_str());
  switch (sofia::campaign::classify(run, target.clean_run().output)) {
    case sofia::campaign::TrialClass::kDetected:
      std::printf("RESET at cycle %llu (%s)\n",
                  static_cast<unsigned long long>(run.reset.cycle),
                  to_string(run.reset.cause).data());
      break;
    case sofia::campaign::TrialClass::kHarmless:
      std::printf("no effect (tampered a block the run never fetches)\n");
      break;
    case sofia::campaign::TrialClass::kEscaped:
      std::printf("!!! UNDETECTED CORRUPTION (output '%s')\n",
                  run.output.c_str());
      break;
  }
}

}  // namespace

int main() {
  using namespace sofia;
  using campaign::MutationKind;
  // The device under attack: paper defaults (RECTANGLE-80, example keys).
  const auto profile = pipeline::DeviceProfile::paper_default();
  const auto keys = profile.keys();

  const char* victim = R"(
main:
  li r1, 0
  li r2, 10
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 7
  ret
)";

  // The donor for the cross-version replay: the same victim under omega 1.
  const auto target = campaign::Target::from_source(victim, profile, 0x0001);
  std::printf("victim program runs clean: output = %s\n",
              target.clean_run().output.c_str());

  std::printf("\ncode injection (the device decrypts, then the run-time MAC "
              "fails):\n");
  narrate(target, {MutationKind::kBitFlip, 2, 0});
  // An attacker-chosen 'addi'.
  narrate(target, {MutationKind::kWordPatch, 5, 0x0D400007});
  std::printf("\ncode relocation (CTR counters bind words to addresses):\n");
  narrate(target, {MutationKind::kWordRelocate, 2, 10});
  narrate(target, {MutationKind::kBlockSplice, 0, 1});
  std::printf("\ncross-version replay (the nonce omega separates versions):\n");
  narrate(target, {MutationKind::kCrossVersionSplice, 0});

  std::printf("\nreturn-address smash toward a store gadget:\n");
  const auto demo = security::run_rop_demo(keys);
  std::printf("  vanilla core: clean '%s' -> attacked '%s'  (gadget fired!)\n",
              demo.vanilla_clean.output.substr(0, 4).c_str(),
              demo.vanilla_attacked.output.substr(0, 4).c_str());
  std::printf("  SOFIA core:   clean '%s' -> attacked: %s, cause %s — the\n"
              "  gadget block was encrypted for its legitimate predecessor,\n"
              "  not for this return edge, so its MAC check fails before the\n"
              "  store can reach the MA stage.\n",
              demo.sofia_clean.output.substr(0, 4).c_str(),
              to_string(demo.sofia_attacked.status).data(),
              to_string(demo.sofia_attacked.reset.cause).data());
  return 0;
}
