// Security evaluation tests (paper §IV-A): every attack class must be
// detected on the SOFIA device before an externally visible effect, the
// same attacks must succeed against the vanilla core where applicable, and
// the forgery-cost analysis must reproduce the paper's numbers exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "campaign/campaign.hpp"
#include "security/demos.hpp"
#include "security/forgery.hpp"
#include "sim_test_util.hpp"

namespace sofia::security {
namespace {

using campaign::MutationKind;

const char* kVictim = R"(
main:
  li r1, 0
  li r2, 8
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r3, out
  sw r1, 0(r3)
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
.data
out: .word 0
)";

class Attacks : public ::testing::Test {
 protected:
  /// Per-word CTR, the toolchain's historical default for this victim.
  static const campaign::Target& target() {
    static const campaign::Target t = [] {
      auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
      profile.granularity = crypto::Granularity::kPerWord;
      return campaign::Target::from_source(kVictim, profile, 0x1111);
    }();
    return t;
  }

  static bool detected(const sim::RunResult& run) {
    return run.status == sim::RunResult::Status::kReset;
  }

  static sim::RunResult flip_bit(std::uint32_t word, unsigned bit) {
    return target().run({{MutationKind::kBitFlip, word, bit}});
  }
};

TEST_F(Attacks, CleanRunSucceeds) {
  EXPECT_TRUE(target().clean_run().ok());
  EXPECT_EQ(target().clean_run().output, "32\n");
}

TEST_F(Attacks, SingleBitFlipDetected) {
  const auto run = flip_bit(2, 5);  // first instruction word
  EXPECT_TRUE(detected(run)) << to_string(run.status);
  EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch);
}

TEST_F(Attacks, MacWordFlipDetected) {
  EXPECT_TRUE(detected(flip_bit(0, 17)));  // stored MAC word
}

TEST_F(Attacks, PatchWordDetected) {
  // Attacker writes a chosen (plaintext-encoded) instruction, hoping it
  // executes: the decrypting fetch turns it into garbage and the MAC fails.
  const std::uint32_t injected = isa::encode(
      isa::Instruction{isa::Opcode::kAddi, 1, 1, 0, 100});
  EXPECT_TRUE(
      detected(target().run({{MutationKind::kWordPatch, 3, injected}})));
}

TEST_F(Attacks, RelocateWordDetected) {
  // Moving valid ciphertext elsewhere breaks the PC-bound counter — the
  // attack that defeats AES-ECB instruction randomization (paper §I).
  EXPECT_TRUE(detected(target().run({{MutationKind::kWordRelocate, 4, 12}})));
}

TEST_F(Attacks, BlockSpliceDetected) {
  ASSERT_GE(target().image().text.size() / 8, 3u);
  EXPECT_TRUE(detected(target().run({{MutationKind::kBlockSplice, 0, 2}})));
}

TEST_F(Attacks, CrossVersionSpliceDetected) {
  // Block 1 of the same program built under omega 0x1111 (the donor).
  EXPECT_TRUE(
      detected(target().run({{MutationKind::kCrossVersionSplice, 1}})));
}

TEST_F(Attacks, HundredRandomBitFlipsAllDetectedOrHarmless) {
  Rng rng(2024);
  const std::string& clean = target().clean_run().output;
  int detected_count = 0;
  int harmless = 0;
  for (int i = 0; i < 100; ++i) {
    const auto word =
        static_cast<std::uint32_t>(rng.next_below(target().image().text.size()));
    const campaign::Mutation flip{MutationKind::kBitFlip, word,
                                  rng.next_below(32)};
    const auto run = target().run({flip});
    if (detected(run)) {
      ++detected_count;
    } else if (run.output == clean) {
      // Flip landed in a block the run never fetched.
      ++harmless;
    } else {
      ADD_FAILURE() << flip.describe() << ": undetected corruption, status "
                    << to_string(run.status);
    }
  }
  EXPECT_EQ(detected_count + harmless, 100);
  EXPECT_GT(detected_count, 50);  // most of the text is live in this program
}

TEST_F(Attacks, DetectionIsPromptNoTamperedStoreCommits) {
  // The memory-visible output ("out" data word via console) must never
  // reflect a tampered execution: any non-clean output must coincide with
  // a reset *and* empty console output (stores gated).
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const auto word = static_cast<std::uint32_t>(
        rng.next_below(target().image().text.size()));
    const campaign::Mutation flip{MutationKind::kBitFlip, word,
                                  rng.next_below(32)};
    const auto run = target().run({flip});
    if (!detected(run)) continue;
    EXPECT_TRUE(run.output.empty() ||
                run.output == target().clean_run().output)
        << flip.describe() << " leaked output: " << run.output;
  }
}

// ---------------------------------------------------------------------------
// ROP-style demo (§IV-A-2).
// ---------------------------------------------------------------------------

TEST(RopDemoTest, AttackSucceedsOnVanillaDetectedOnSofia) {
  const auto demo = run_rop_demo(test::test_keys());
  // Clean runs behave identically.
  ASSERT_TRUE(demo.vanilla_clean.ok());
  ASSERT_TRUE(demo.sofia_clean.ok());
  EXPECT_EQ(demo.vanilla_clean.output, "1111\n");
  EXPECT_EQ(demo.sofia_clean.output, "1111\n");
  // The unprotected core executes the gadget: the forbidden store fires.
  EXPECT_NE(demo.vanilla_attacked.output.find("6666"), std::string::npos);
  // SOFIA resets before the gadget's store can reach the MA stage.
  EXPECT_EQ(demo.sofia_attacked.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(demo.sofia_attacked.output.find("6666"), std::string::npos);
}

TEST(JopDemoTest, TableCorruptionTrappedByDevirtualizedDispatch) {
  const auto demo = run_jop_demo(test::test_keys());
  ASSERT_TRUE(demo.vanilla_clean.ok());
  ASSERT_TRUE(demo.sofia_clean.ok());
  EXPECT_EQ(demo.vanilla_clean.output, demo.sofia_clean.output);
  // Vanilla: the corrupted pointer dispatches straight into the gadget.
  EXPECT_NE(demo.vanilla_attacked.output.find("7777"), std::string::npos);
  // SOFIA: the compare chain finds no listed target and falls into the
  // halt trap — the gadget never runs, nothing is printed.
  EXPECT_EQ(demo.sofia_attacked.status, sim::RunResult::Status::kHalted);
  EXPECT_EQ(demo.sofia_attacked.output.find("7777"), std::string::npos);
  EXPECT_TRUE(demo.sofia_attacked.output.empty());
}

// ---------------------------------------------------------------------------
// Forgery cost (§IV-A-1 and §IV-A-2).
// ---------------------------------------------------------------------------

TEST(Forgery, PaperSiNumberReproduced) {
  // 64-bit MAC, 8 cycles per trial, 50 MHz -> 46,795 years.
  const double years = forgery_years(64, 8, 50e6);
  EXPECT_NEAR(years, 46795.0, 1.0);
}

TEST(Forgery, PaperCfiNumberReproduced) {
  // Control-flow diversion (8 cycles) + MAC verification (8 cycles).
  const double years = forgery_years(64, 16, 50e6);
  EXPECT_NEAR(years, 93590.0, 2.0);
}

TEST(Forgery, ExpectedTrialsLaw) {
  EXPECT_DOUBLE_EQ(expected_forgery_trials(8), 128.0);
  EXPECT_DOUBLE_EQ(expected_forgery_trials(16), 32768.0);
  EXPECT_DOUBLE_EQ(expected_forgery_trials(64), std::ldexp(1.0, 63));
}

TEST(Forgery, MonteCarloMatchesLawAt8Bits) {
  Rng rng(99);
  const auto exp = run_forgery_experiment(test::test_keys(), 8, 4000, rng);
  // Mean of a uniform 8-bit tag + 1 is 128.5; allow ~5% tolerance.
  EXPECT_NEAR(exp.mean_trials, exp.expected_trials, exp.expected_trials * 0.05);
}

TEST(Forgery, MonteCarloMatchesLawAt12Bits) {
  Rng rng(123);
  const auto exp = run_forgery_experiment(test::test_keys(), 12, 4000, rng);
  EXPECT_NEAR(exp.mean_trials, exp.expected_trials, exp.expected_trials * 0.06);
}

TEST(Forgery, DetectionRateApproachesOneMinusTwoToMinusN) {
  Rng rng(5);
  const auto exp = run_detection_experiment(test::test_keys(), 8, 20000, rng);
  // Expected undetected fraction 2^-8 = 0.39%; allow 3x.
  EXPECT_LT(static_cast<double>(exp.undetected) / exp.trials, 3.0 / 256);
  EXPECT_GT(exp.detection_rate, 0.98);
}

TEST(Forgery, FullTagDetectionPerfectInPractice) {
  Rng rng(6);
  const auto exp = run_detection_experiment(test::test_keys(), 64, 5000, rng);
  EXPECT_EQ(exp.undetected, 0u);
}

}  // namespace
}  // namespace sofia::security
