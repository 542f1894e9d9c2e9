// Property-based tests over randomly generated programs:
//
//  P1  vanilla and SOFIA executions are architecturally identical, for
//      every block policy and keystream granularity;
//  P2  any single-bit tamper of the ciphertext either resets the device or
//      leaves the output untouched (dead/never-fetched text) — never a
//      silent corruption;
//  P3  transformation is deterministic and layout invariants hold;
//  P4  any single transient fetch fault is detected (or architecturally
//      masked: impossible for SOFIA, where every fetched word is covered).
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "crypto/ctr.hpp"
#include "random_program.hpp"
#include "reference_interp.hpp"
#include "sim/backend.hpp"
#include "sim_test_util.hpp"

namespace sofia {
namespace {

using test::GeneratorOptions;
using test::random_program;

class FuzzEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalence, VanillaAndSofiaAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::string src = random_program(rng);
  SCOPED_TRACE(src);
  xform::Options opts;
  // Rotate through configurations by seed.
  switch (GetParam() % 4) {
    case 0: break;
    case 1: opts.granularity = crypto::Granularity::kPerPair; break;
    case 2: opts.policy = xform::BlockPolicy::small_unrestricted(); break;
    case 3:
      opts.policy = xform::BlockPolicy{12, 4};
      opts.granularity = crypto::Granularity::kPerPair;
      break;
  }
  test::expect_equivalent(src, opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence, ::testing::Range(0, 48));

class FuzzTamper : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTamper, BitFlipsNeverCorruptSilently) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const std::string src = random_program(rng);
  SCOPED_TRACE(src);
  const auto keys = test::test_keys();
  const auto result = test::transform_source(src, keys);
  auto config = test::sofia_config(keys);
  config.max_cycles = 5'000'000;
  const auto clean = sim::run_image(result.image, config);
  ASSERT_TRUE(clean.ok());

  for (int flip = 0; flip < 8; ++flip) {
    auto image = result.image;
    const auto word = rng.next_below(image.text.size());
    const auto bit = static_cast<unsigned>(rng.next_below(32));
    image.text[word] ^= (1u << bit);
    const auto run = sim::run_image(image, config);
    const bool detected = run.status == sim::RunResult::Status::kReset;
    const bool untouched = run.ok() && run.output == clean.output;
    EXPECT_TRUE(detected || untouched)
        << "silent corruption: word " << word << " bit " << bit << " status "
        << to_string(run.status) << " output '" << run.output << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTamper, ::testing::Range(0, 24));

class FuzzFault : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFault, FetchFaultsAlwaysDetected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  const std::string src = random_program(rng);
  SCOPED_TRACE(src);
  const auto keys = test::test_keys();
  const auto result = test::transform_source(src, keys);
  auto config = test::sofia_config(keys);
  config.max_cycles = 5'000'000;
  const auto clean = sim::run_image(result.image, config);
  ASSERT_TRUE(clean.ok());
  const std::uint64_t span = clean.stats.fetch_words + clean.stats.mac_words;

  for (int trial = 0; trial < 6; ++trial) {
    auto faulty = config;
    faulty.fault.enabled = true;
    faulty.fault.fetch_index = rng.next_below(std::max<std::uint64_t>(1, span));
    faulty.fault.bit = static_cast<unsigned>(rng.next_below(32));
    const auto run = sim::run_image(result.image, faulty);
    EXPECT_EQ(run.status, sim::RunResult::Status::kReset)
        << "fault at fetch " << faulty.fault.fetch_index << " bit "
        << faulty.fault.bit << " -> " << to_string(run.status);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFault, ::testing::Range(0, 16));

class FuzzLayout : public ::testing::TestWithParam<int> {};

TEST_P(FuzzLayout, DeterministicAndInvariantPreserving) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 101);
  const std::string src = random_program(rng);
  SCOPED_TRACE(src);
  const auto keys = test::test_keys();
  const auto a = test::transform_source(src, keys);
  const auto b = test::transform_source(src, keys);
  ASSERT_EQ(a.image.text, b.image.text);  // deterministic ciphertext
  ASSERT_EQ(a.image.entry, b.image.entry);

  const auto& policy = a.layout.policy();
  for (const auto& block : a.layout.blocks()) {
    const std::uint32_t cap = block.kind == xform::BlockKind::kExec
                                  ? policy.exec_insts()
                                  : policy.mux_insts();
    ASSERT_EQ(block.insts.size(), cap);
    ASSERT_EQ(block.base_word % policy.words_per_block, 0u);
    const std::uint32_t macs = policy.words_per_block - cap;
    for (std::size_t s = 0; s < block.insts.size(); ++s) {
      const auto op = block.insts[s].inst.op;
      if (isa::is_control(op)) {
        EXPECT_EQ(s + 1, block.insts.size());
      }
      if (isa::is_store(op)) {
        EXPECT_GE(macs + s, policy.store_min_word);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLayout, ::testing::Range(0, 24));

class FuzzCounters : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCounters, CtrCountersNeverRepeatWithinAnImage) {
  // Keystream reuse (two words encrypted under the same counter) would let
  // an attacker XOR ciphertexts to cancel the keystream — the classic
  // two-time-pad break. Every (prev, pc) pair in an image must be unique.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  const std::string src = random_program(rng);
  SCOPED_TRACE(src);
  const auto keys = test::test_keys();
  const auto result = test::transform_source(src, keys);
  std::set<std::uint64_t> counters;
  const auto& policy = result.layout.policy();
  for (const auto& block : result.layout.blocks()) {
    for (std::uint32_t j = 0; j < policy.words_per_block; ++j) {
      std::uint32_t prev;
      if (j == 0)
        prev = block.pred1_word;
      else if (block.kind == xform::BlockKind::kMux && j == 1)
        prev = block.pred2_word;
      else
        prev = block.base_word + j - 1;
      const std::uint64_t counter =
          crypto::pack_counter(keys.omega, prev, block.base_word + j);
      EXPECT_TRUE(counters.insert(counter).second)
          << "counter reuse at block " << block.id << " word " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCounters, ::testing::Range(0, 12));

class FuzzSemantics : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSemantics, PipelinedMachineMatchesReferenceInterpreter) {
  // Differential check against a timing-free oracle: hazards, speculation
  // squash and store gating must never change architectural results, and
  // neither backend may drift from the oracle on the vanilla or the SOFIA
  // image.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
  const std::string src = test::random_program(rng);
  SCOPED_TRACE(src);
  const auto prog = assembler::assemble(src);
  const auto img = assembler::link_vanilla(prog);
  const auto ref = test::reference_run(img);
  ASSERT_TRUE(ref.halted);

  const auto keys = test::test_keys();
  const auto result = test::transform_source(src, keys);
  const auto functional = sim::make_backend("functional");
  const std::pair<const char*, sim::RunResult> runs[] = {
      {"cycle vanilla", sim::run_image(img, test::vanilla_config())},
      {"cycle sofia", sim::run_image(result.image, test::sofia_config(keys))},
      {"functional vanilla", functional->run(img, test::vanilla_config())},
      {"functional sofia", functional->run(result.image, test::sofia_config(keys))},
  };
  for (const auto& [label, run] : runs) {
    SCOPED_TRACE(label);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.exit_code, ref.exit_code);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSemantics, ::testing::Range(0, 32));

}  // namespace
}  // namespace sofia
