// Static verifier tests: every rule of the lint catalog is driven both ways
// (a clean construction lints clean, a targeted mutation trips exactly that
// rule), the whole workload registry lints clean across schemes, ciphers and
// granularities, the tamper matrix is cross-checked against the simulated
// device's runtime verdicts, and the sofia-lint-v1 JSON output is
// byte-deterministic and round-trips through the reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "sim_test_util.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "verify/absval.hpp"
#include "verify/dataflow.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace sofia::verify {
namespace {

// ---------------------------------------------------------------------------
// Hand-built models: the smallest programs that exercise one rule each
// ---------------------------------------------------------------------------

std::uint32_t enc(isa::Opcode op, unsigned rd = 0, unsigned ra = 0,
                  unsigned rb = 0, std::int32_t imm = 0) {
  return isa::encode(isa::Instruction{op, static_cast<std::uint8_t>(rd),
                                      static_cast<std::uint8_t>(ra),
                                      static_cast<std::uint8_t>(rb), imm});
}

DeviceSpec test_spec() {
  DeviceSpec spec;
  spec.keys = test::test_keys();
  return spec;
}

/// Two execution blocks: block 0 jumps to block 1, block 1 halts.
ProgramModel two_block_model() {
  ProgramModel m;
  m.policy = xform::BlockPolicy::paper_default();
  ModelBlock b0;
  b0.base_word = 0;
  b0.pred1_word = assembler::kResetPrevWord;
  b0.inst_words.assign(5, enc(isa::Opcode::kNop));
  b0.inst_words.push_back(enc(isa::Opcode::kJal, 0, 0, 0, 1));  // word 7 -> 8
  ModelBlock b1;
  b1.base_word = 8;
  b1.pred1_word = 7;  // block 0's exit word
  b1.inst_words.assign(5, enc(isa::Opcode::kNop));
  b1.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks = {b0, b1};
  return m;
}

/// Exec -> {exec, mux}: block 0 branches into the multiplexor's path-1
/// entry and falls through to block 1, whose jump enters via path 2.
ProgramModel mux_model() {
  ProgramModel m;
  m.policy = xform::BlockPolicy::paper_default();
  ModelBlock b0;
  b0.base_word = 0;
  b0.pred1_word = assembler::kResetPrevWord;
  b0.inst_words.assign(5, enc(isa::Opcode::kNop));
  // word 7 -> word 17 (mux word offset 1); fall-through -> word 8.
  b0.inst_words.push_back(enc(isa::Opcode::kBeq, 0, 1, 2, 10));
  ModelBlock b1;
  b1.base_word = 8;
  b1.pred1_word = 7;
  b1.inst_words.assign(5, enc(isa::Opcode::kNop));
  // word 15 -> word 18 (mux word offset 2).
  b1.inst_words.push_back(enc(isa::Opcode::kJal, 0, 0, 0, 3));
  ModelBlock mux;
  mux.is_mux = true;
  mux.base_word = 16;
  mux.pred1_word = 7;   // path 1: the branch
  mux.pred2_word = 15;  // path 2: the jump
  mux.inst_words.assign(4, enc(isa::Opcode::kNop));
  mux.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks = {b0, b1, mux};
  return m;
}

/// Seal every model block with the spec's scheme into a consistent image —
/// the ground truth the mutation tests then corrupt one axis at a time.
assembler::LoadImage seal_model(const ProgramModel& m, const DeviceSpec& spec) {
  assembler::LoadImage img;
  img.text_base = m.text_base;
  img.entry = m.entry;
  img.entry_prev = m.entry_prev_word;
  img.sofia = true;
  img.omega = spec.keys.omega;
  img.per_pair = spec.granularity == crypto::Granularity::kPerPair;
  img.text.assign(m.total_words(), 0);
  const auto sealer =
      scheme::get_scheme(spec.scheme).make_sealer(spec.keys, spec.granularity);
  for (const ModelBlock& blk : m.blocks) {
    const auto words = sealer->seal(
        scheme::BlockInfo{blk.is_mux, blk.base_word, blk.pred1_word,
                          blk.pred2_word},
        blk.inst_words);
    std::copy(words.begin(), words.end(),
              img.text.begin() + (blk.base_word - m.text_base / 4));
  }
  return img;
}

bool has_rule(const Report& r, Rule rule) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t rule_count(const Report& r, Rule rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(RuleCatalog, CoversEveryRuleInEnumOrder) {
  const auto& catalog = rule_catalog();
  ASSERT_EQ(catalog.size(), 20u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(catalog[i].rule), i);
    EXPECT_EQ(to_string(catalog[i].rule), catalog[i].name);
    EXPECT_FALSE(catalog[i].description.empty());
  }
  EXPECT_EQ(to_string(Rule::kEdgeSealMismatch), "edge-seal-mismatch");
  EXPECT_EQ(to_string(Rule::kStoreToTextProven), "store-to-text-proven");
  EXPECT_EQ(to_string(Rule::kUnresolvedIndirect), "unresolved-indirect");
  EXPECT_EQ(to_string(Severity::kWarning), "warning");
  // Exactly the three advisory (non-enforcement) rules are warnings.
  std::size_t warnings = 0;
  for (const auto& info : catalog)
    if (info.severity == Severity::kWarning) ++warnings;
  EXPECT_EQ(warnings, 3u);
}

// ---------------------------------------------------------------------------
// Clean constructions
// ---------------------------------------------------------------------------

TEST(HandModel, TwoBlockProgramLintsClean) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_TRUE(report.findings.empty()) << report.render_text();
  EXPECT_EQ(report.blocks_checked, 2u);
  EXPECT_EQ(report.entries_checked, 2u);
  EXPECT_EQ(report.edges_checked, 2u);  // reset entry + the jump
}

TEST(HandModel, MuxProgramLintsClean) {
  const auto spec = test_spec();
  const auto m = mux_model();
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(report.blocks_checked, 3u);
  // block 0 word 0, block 1 word 0, mux words 0 and 1.
  EXPECT_EQ(report.entries_checked, 4u);
  EXPECT_EQ(report.edges_checked, 4u);
}

TEST(HandModel, RenderTextSummarizesCounters) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto text = lint(m, seal_model(m, spec), spec).render_text();
  EXPECT_NE(text.find("2 block(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("0 error(s)"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// One mutation, one rule
// ---------------------------------------------------------------------------

TEST(Rules, ImageMetadataWrongEntry) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.entry += 4;
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kImageMetadata));
  EXPECT_FALSE(report.clean());
}

TEST(Rules, ImageMetadataNotSofia) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.sofia = false;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kImageMetadata));
}

TEST(Rules, ImageMetadataWrongResetPrev) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.entry_prev = 42;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kImageMetadata));
}

TEST(Rules, GeometryTruncatedText) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text.pop_back();
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kGeometry));
  // Seal comparison is meaningless against a truncated image.
  EXPECT_EQ(report.blocks_checked, 0u);
}

TEST(Rules, GeometryWrongInstructionCount) {
  const auto spec = test_spec();
  auto m = two_block_model();
  const auto img = seal_model(m, spec);
  m.blocks[1].inst_words.pop_back();
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kGeometry));
}

TEST(Rules, OmegaMismatch) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.omega ^= 0x1111;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kOmegaMismatch));
}

TEST(Rules, GranularityMismatch) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.per_pair = !img.per_pair;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kGranularityMismatch));
}

TEST(Rules, GranularityIgnoredBySchemesWithoutThatAxis) {
  auto spec = test_spec();
  spec.scheme = "sponge";
  ASSERT_FALSE(scheme::get_scheme("sponge").traits().uses_granularity);
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.per_pair = !img.per_pair;
  EXPECT_FALSE(has_rule(lint(m, img, spec), Rule::kGranularityMismatch));
}

TEST(Rules, ProfileMismatchCollapsesPerBlockNoise) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto img = seal_model(m, spec);
  auto wrong = spec;
  Rng rng(99);
  wrong.keys = crypto::KeySet::random(spec.keys.kind, rng);
  wrong.keys.omega = spec.keys.omega;  // isolate the key axis
  const auto report = lint(m, img, wrong);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(rule_count(report, Rule::kProfileMismatch), 1u);
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
}

TEST(Rules, TamperedTextFlipsOneBodyBit) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8 + 3] ^= 0x20;  // block 1, instruction word
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kTamperedText));
  EXPECT_FALSE(has_rule(report, Rule::kProfileMismatch));
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == Rule::kTamperedText; });
  ASSERT_NE(it, report.findings.end());
  EXPECT_EQ(it->block, 1);
  EXPECT_EQ(it->insn, 8 + 3);
}

TEST(Rules, ForgedHeaderFlipsOnlyHeaderWords) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8] ^= 1;  // block 1, header/MAC word
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kForgedHeader));
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
}

TEST(Rules, RelocatedBlockNamesTheDonor) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  std::copy(img.text.begin(), img.text.begin() + 8, img.text.begin() + 8);
  const auto report = lint(m, img, spec);
  ASSERT_TRUE(has_rule(report, Rule::kRelocatedBlock));
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == Rule::kRelocatedBlock; });
  EXPECT_EQ(it->block, 1);
  EXPECT_NE(it->message.find("block 0"), std::string::npos) << it->message;
}

TEST(Rules, EdgeSealMismatchWrongDeclaredPredecessor) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // The toolchain sealed block 1 for the wrong predecessor; the sealing is
  // internally consistent (so no seal finding) but the edge cannot open it.
  m.blocks[1].pred1_word = 0x123;
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kEdgeSealMismatch));
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
  EXPECT_FALSE(has_rule(report, Rule::kProfileMismatch));
}

TEST(Rules, AmbiguousPredecessorTwoArrivals) {
  const auto spec = test_spec();
  auto m = mux_model();
  // Redirect block 1's jump from the mux's path-2 entry to path 1, which
  // the branch in block 0 already uses: two distinct prevPC values.
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 2);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kAmbiguousPredecessor));
}

TEST(Rules, InvalidEntryMidBlockTarget) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[0].inst_words.back() =
      enc(isa::Opcode::kJal, 0, 0, 0, 2);  // word 9: offset 1 of an exec block
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, InvalidEntryMuxWordZero) {
  const auto spec = test_spec();
  auto m = mux_model();
  // Word 16 is the mux block's word 0 — no transfer may enter there.
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 1);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, InvalidEntryOutsideText) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[0].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 1000);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, ControlPlacementOutsideExitSlot) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kJal, 0, 0, 0, -2);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kControlPlacement));
}

TEST(Rules, StorePlacementBelowStoreMin) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // Slot 0 is block word 2, below the paper policy's store_min_word = 4.
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kStorePlacement));
  // The same store two slots later conforms.
  auto ok = two_block_model();
  ok.blocks[1].inst_words[2] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  EXPECT_TRUE(lint(ok, seal_model(ok, spec), spec).clean());
}

TEST(Rules, UndecodableInstruction) {
  const auto spec = test_spec();
  auto m = two_block_model();
  ASSERT_FALSE(isa::decode(0xFFFFFFFFu).has_value());
  m.blocks[1].inst_words[1] = 0xFFFFFFFFu;
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kUndecodableInstruction));
}

TEST(Rules, StrayIndirectJump) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJalr, 1, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kStrayIndirectJump));
}

TEST(Rules, RetEdgesResolveAgainstRetTargets) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // Turn block 1 into a returning callee whose single call site's link
  // address is block 0's entry — a self-loop shape, but enough to prove the
  // walk follows ret_targets and checks the arriving predecessor.
  m.blocks[1].inst_words.back() =
      enc(isa::Opcode::kJalr, 0, isa::kRegLr, 0, 0);
  m.blocks[1].ret_targets = {0};  // byte address of block 0's entry
  auto report = lint(m, seal_model(m, spec), spec);
  // Block 0's entry is sealed for the reset word, not block 1's exit.
  EXPECT_TRUE(has_rule(report, Rule::kEdgeSealMismatch));
  EXPECT_TRUE(has_rule(report, Rule::kAmbiguousPredecessor));
  EXPECT_FALSE(has_rule(report, Rule::kStrayIndirectJump));
}

TEST(Rules, UnreachableBlockIsAWarning) {
  const auto spec = test_spec();
  auto m = two_block_model();
  ModelBlock orphan;
  orphan.base_word = 16;
  orphan.pred1_word = 7;
  orphan.inst_words.assign(5, enc(isa::Opcode::kNop));
  orphan.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks.push_back(orphan);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kUnreachableBlock));
  EXPECT_TRUE(report.clean());  // warning, not error
  EXPECT_EQ(report.count(Severity::kWarning), 1u);

  Options opts;
  opts.unreachable_warnings = false;
  EXPECT_TRUE(
      lint(m, seal_model(m, spec), spec, opts).findings.empty());
}

TEST(Rules, StoreProvenInsideTextIsAnError) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // r1 = 4: the dataflow engine proves the store writes inside the sealed
  // text section — an error, not the old heuristic warning.
  m.blocks[1].inst_words[2] = enc(isa::Opcode::kAddi, 1, 0, 0, 4);
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_EQ(rule_count(report, Rule::kStoreToTextProven), 1u);
  EXPECT_FALSE(report.clean());
}

TEST(Rules, StoreProvenOutsideTextIsSilentlySafe) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.data_base = 0x00100000;
  m.data.assign(16, 0);
  // r1 = 0x40 << 14 = 0x00100000: provably in the data section, so the
  // store produces no finding and counts as proven safe.
  m.blocks[1].inst_words[2] = enc(isa::Opcode::kLui, 1, 0, 0, 0x40);
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_FALSE(has_rule(report, Rule::kStoreToText));
  EXPECT_FALSE(has_rule(report, Rule::kStoreToTextProven));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.stores_checked, 1u);
  EXPECT_EQ(report.stores_proven_safe, 1u);
}

TEST(Rules, UnknownStoreAddressIsOutOfStaticScope) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // r1 is never defined: the store's address is top — no static claim,
  // no finding, and it does not count as proven safe.
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.stores_checked, 1u);
  EXPECT_EQ(report.stores_proven_safe, 0u);
}

// ---------------------------------------------------------------------------
// Real toolchain output: the differential contract
// ---------------------------------------------------------------------------

TEST(Differential, EveryWorkloadLintsCleanAcrossTheMatrix) {
  for (const auto& wl : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, wl.default_size / 8);
    for (const auto& scheme_name : scheme::scheme_names()) {
      for (const auto kind :
           {crypto::CipherKind::kSpeck64_128, crypto::CipherKind::kRectangle80}) {
        for (const auto gran :
             {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord}) {
          // RECTANGLE-80 is slow in software; one granularity covers it.
          if (kind == crypto::CipherKind::kRectangle80 &&
              gran == crypto::Granularity::kPerWord)
            continue;
          auto profile = pipeline::DeviceProfile::example(kind);
          profile.scheme = scheme_name;
          profile.granularity = gran;
          auto session =
              pipeline::Pipeline::from_workload(wl, 1, size, profile);
          const auto report = session.lint();
          EXPECT_TRUE(report.clean())
              << wl.name << " scheme=" << scheme_name
              << " cipher=" << crypto::to_string(kind)
              << " gran=" << crypto::to_string(gran) << "\n"
              << report.render_text();
          EXPECT_GT(report.blocks_checked, 0u);
          EXPECT_GT(report.edges_checked, 0u);
        }
      }
    }
  }
}

TEST(Differential, NonDefaultPolicyLintsClean) {
  auto profile = pipeline::DeviceProfile::example(
      crypto::CipherKind::kSpeck64_128);
  profile.policy = xform::BlockPolicy{6, 0};
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  EXPECT_TRUE(session.lint().clean());
}

// The soundness harness: for every workload × 25 generator seeds × both
// ciphers, transform under the gating scheme (indirect jumps stay live),
// run the untampered image on the cycle backend with a full trace, and
// check the dataflow engine's proofs against observed behavior:
//  * every runtime-observed indirect-transfer target lands in a block of
//    the static target set (declared, and proven when the engine bounded
//    it) — an observed target outside the set would be unsound;
//  * a program whose stores the engine proved safe never trips the
//    runtime store gate (the untampered run completes cleanly).
TEST(Differential, RuntimeBehaviorStaysWithinTheStaticProofs) {
  constexpr std::uint64_t kSeeds = 25;
  std::uint64_t observed_jalr = 0;
  std::uint64_t proven_safe_total = 0;
  for (const auto& wl : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, wl.default_size / 8);
    for (const auto kind :
         {crypto::CipherKind::kSpeck64_128, crypto::CipherKind::kRectangle80}) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const std::string label = std::string(wl.name) + " seed=" +
                                  std::to_string(seed) + " cipher=" +
                                  std::string(crypto::to_string(kind));
        auto profile = pipeline::DeviceProfile::from_seed(kind, seed);
        profile.scheme = pipeline::DeviceProfile::parse_scheme("flta");
        profile.backend = pipeline::DeviceProfile::parse_backend("cycle");
        auto session = pipeline::Pipeline::from_workload(wl, seed, size,
                                                         profile);
        sim::SimConfig config;
        config.collect_trace = true;
        config.max_trace = 8'000'000;
        session.set_sim_config(config);

        const auto report = session.lint();
        ASSERT_TRUE(report.clean()) << label << "\n" << report.render_text();
        proven_safe_total += report.stores_proven_safe;

        const auto& run = session.run();
        ASSERT_TRUE(run.ok()) << label << " status=" << static_cast<int>(run.status);
        ASSERT_LT(run.trace.size(), static_cast<std::size_t>(config.max_trace))
            << label << ": trace truncated; raise max_trace";

        const auto model = model_of(session.hardened());
        const std::uint32_t block_bytes = model.policy.words_per_block * 4;
        const auto block_of = [&](std::uint32_t addr) {
          return (addr - model.text_base) / block_bytes;
        };
        for (std::size_t i = 0; i + 1 < run.trace.size(); ++i) {
          const std::int64_t word_addr = run.trace[i].pc / 4;
          const auto rec = std::find_if(
              report.indirects.begin(), report.indirects.end(),
              [&](const IndirectTargets& r) { return r.insn == word_addr; });
          if (rec == report.indirects.end()) continue;
          ++observed_jalr;
          const std::uint32_t target_block = block_of(run.trace[i + 1].pc);
          const auto lands_in = [&](const std::vector<std::uint32_t>& set) {
            return std::any_of(set.begin(), set.end(), [&](std::uint32_t t) {
              return block_of(t) == target_block;
            });
          };
          ASSERT_TRUE(lands_in(rec->declared))
              << label << ": runtime target block " << target_block
              << " outside the declared set of jalr @" << word_addr;
          if (rec->proven_finite) {
            ASSERT_TRUE(lands_in(rec->proven))
                << label << ": runtime target block " << target_block
                << " outside the PROVEN set of jalr @" << word_addr
                << " — the dataflow engine is unsound";
          }
        }
      }
    }
  }
  // The harness must not pass vacuously: the registry contains indirect
  // dispatch (minivm) and provably-safe stores.
  EXPECT_GT(observed_jalr, 0u);
  EXPECT_GT(proven_safe_total, 0u);
}

/// Fixture for the tamper matrix: one source, transformed once; every
/// statically decidable tamper must (a) trip the matching lint rule and
/// (b) agree with the device — the tampered image also fails at runtime.
class TamperMatrix : public ::testing::Test {
 protected:
  static pipeline::Pipeline& session() {
    static pipeline::Pipeline p = [] {
      auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
      auto s = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
      s.image();  // force the transform
      return s;
    }();
    return p;
  }

  static assembler::LoadImage tampered(std::uint32_t word, std::uint32_t bit) {
    auto img = session().image();
    img.text[word] ^= 1u << bit;
    return img;
  }

  /// The runtime verdict for the same image the linter judged.
  static bool device_detects(const assembler::LoadImage& img) {
    const auto run = session().run_image(img);
    return run.reset.cause != sim::ResetCause::kNone || !run.ok();
  }
};

TEST_F(TamperMatrix, CleanImageAgreesBothWays) {
  EXPECT_TRUE(session().lint().clean());
  EXPECT_FALSE(device_detects(session().image()));
}

TEST_F(TamperMatrix, BodyBitFlip) {
  const auto img = tampered(3, 5);  // block 0 instruction word
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kTamperedText)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, HeaderBitFlip) {
  const auto img = tampered(0, 17);  // block 0 MAC word
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kForgedHeader)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, BlockSplice) {
  auto img = session().image();
  ASSERT_GE(img.text.size(), 24u);
  std::copy(img.text.begin(), img.text.begin() + 8, img.text.begin() + 8);
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kRelocatedBlock)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, CrossVersionReplay) {
  // The same program sealed under a different version nonce: substituting
  // one of its blocks must fail statically and at runtime.
  auto other_profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  other_profile.omega_override = 0x1111;
  auto other =
      pipeline::Pipeline::from_workload("fib", 1, 8, other_profile);
  auto img = session().image();
  const auto& donor = other.image();
  ASSERT_EQ(img.text.size(), donor.text.size());
  std::copy(donor.text.begin() + 8, donor.text.begin() + 16,
            img.text.begin() + 8);
  const auto report = session().lint_image(img);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, WrongKeysIsOneProfileFinding) {
  auto wrong = session().device_spec();
  Rng rng(7);
  wrong.keys = crypto::KeySet::random(wrong.keys.kind, rng);
  wrong.keys.omega = session().image().omega;
  const auto& hard = session().hardened();
  const auto report =
      verify::lint(verify::model_of(hard), session().image(), wrong);
  EXPECT_EQ(rule_count(report, Rule::kProfileMismatch), 1u)
      << report.render_text();
}

// ---------------------------------------------------------------------------
// Image-only mode
// ---------------------------------------------------------------------------

TEST(ImageOnly, CleanSavedImagePasses) {
  auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  const auto report = verify::lint(session.image(), session.device_spec());
  EXPECT_TRUE(report.clean()) << report.render_text();
}

TEST(ImageOnly, MetadataDefectsAreFindings) {
  auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  auto img = session.image();
  img.sofia = false;
  img.entry_prev = 3;
  img.omega ^= 1;
  img.entry = img.text_base + 4 * img.text.size();  // one past the end
  img.text.pop_back();
  const auto report = verify::lint(img, session.device_spec());
  EXPECT_TRUE(has_rule(report, Rule::kImageMetadata));
  EXPECT_TRUE(has_rule(report, Rule::kGeometry));
  EXPECT_TRUE(has_rule(report, Rule::kOmegaMismatch));
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

// ---------------------------------------------------------------------------
// The dataflow engine's facts, pinned
// ---------------------------------------------------------------------------

/// An abstract value through its public accessors only, so the rendering
/// does not depend on how the lattice stores it.
void render_absval(const AbsVal& v, std::string& out) {
  if (v.is_bottom()) {
    out += "bottom";
    return;
  }
  if (v.is_top()) {
    out += "top";
    return;
  }
  out += std::to_string(v.min()) + ".." + std::to_string(v.max());
  if (const auto members = v.enumerate(64)) {
    out += " {";
    for (const std::uint32_t m : *members) out += std::to_string(m) + ",";
    out += "}";
  }
}

TEST(Dataflow, FactsArePinned) {
  // Every fixpoint the engine reaches on the registry (default size, seed
  // 1): its round and transfer counts and every store and indirect-jump
  // fact. A faster lattice or worklist must leave the digest alone; a
  // deliberate precision change updates it in the same commit.
  std::string rendered;
  for (const auto& wl : workloads::all_workloads()) {
    for (const auto& scheme_name : scheme::scheme_names()) {
      for (const auto kind : {crypto::CipherKind::kRectangle80,
                              crypto::CipherKind::kSpeck64_128}) {
        auto profile = pipeline::DeviceProfile::example(kind);
        profile.scheme = scheme_name;
        auto session =
            pipeline::Pipeline::from_workload(wl, 1, wl.default_size, profile);
        const auto df = dataflow::analyze(model_of(session.hardened()));
        rendered += wl.name + " " + scheme_name + " " +
                    std::string(crypto::to_string(kind)) + " rounds=" +
                    std::to_string(df.rounds) + " transfers=" +
                    std::to_string(df.transfers) + "\n";
        for (const auto& st : df.stores) {
          rendered += "S " + std::to_string(st.block) + " " +
                      std::to_string(st.word_addr) + " " +
                      std::to_string(st.size) + " ";
          render_absval(st.addr, rendered);
          rendered += "\n";
        }
        for (const auto& ind : df.indirects) {
          rendered += "J " + std::to_string(ind.block) + " " +
                      std::to_string(ind.word_addr) + " ";
          render_absval(ind.target, rendered);
          rendered += "\n";
        }
      }
    }
  }
  EXPECT_EQ(support::sha256_hex(rendered),
            "b789946e450ce87adcf621a6f5b869fda9de38abdda3bb5e1eeffc5ce1017a8b");
}

// ---------------------------------------------------------------------------
// The abstract-value lattice: seeded property tests
// ---------------------------------------------------------------------------

/// A random operand and the concrete values it stands for, so the checks
/// can draw members without reading the lattice's storage.
struct Operand {
  enum class Shape { kBottom, kTop, kSet, kInterval };
  Shape shape = Shape::kBottom;
  AbsVal v;
  std::vector<std::uint32_t> set;            ///< kSet: what consts() got
  std::uint32_t lo = 0, hi = 0, stride = 1;  ///< kInterval
};

/// Bases near the section thresholds the engine widens to, and near 2^32
/// where unsigned arithmetic wraps.
constexpr std::uint32_t kBases[] = {0u,       0x100u,      0x4000u,
                                    0x10000u, 0x20000u,    0x7FFFF000u,
                                    0xFFFFFF00u};
const std::vector<std::uint32_t> kThresholds = {0u, 0x4000u, 0x10000u,
                                                0x20000u, 0x7FFFF000u};

std::uint32_t near_base(Rng& rng) {
  return kBases[rng.next_below(std::size(kBases))] +
         static_cast<std::uint32_t>(rng.next_below(256));
}

Operand random_operand(Rng& rng) {
  Operand op;
  switch (rng.next_below(8)) {
    case 0:
      op.shape = Operand::Shape::kBottom;
      op.v = AbsVal::bottom();
      break;
    case 1:
      op.shape = Operand::Shape::kTop;
      op.v = AbsVal::top();
      break;
    case 2:
    case 3:
    case 4: {
      // 1..16 members, half of them on a common stride from one base, so
      // joins and pairwise products often grow past kMaxConsts.
      op.shape = Operand::Shape::kSet;
      const std::size_t n = 1 + rng.next_below(AbsVal::kMaxConsts);
      const std::uint32_t base = near_base(rng);
      const std::uint32_t stride = 1u << rng.next_below(4);
      const bool strided = rng.next_bool();
      for (std::size_t i = 0; i < n; ++i)
        op.set.push_back(strided ? base + stride * static_cast<std::uint32_t>(
                                                       rng.next_below(32))
                                 : near_base(rng));
      op.v = AbsVal::consts(op.set);
      break;
    }
    default: {
      op.shape = Operand::Shape::kInterval;
      op.lo = near_base(rng);
      op.stride = 1 + static_cast<std::uint32_t>(rng.next_below(8));
      const std::uint32_t room = (0xFFFFFFFFu - op.lo) / op.stride;
      const auto steps = std::min<std::uint32_t>(
          room, 1 + static_cast<std::uint32_t>(rng.next_below(64)));
      op.hi = op.lo + op.stride * steps;
      op.v = AbsVal::interval(op.lo, op.hi, op.stride);
      break;
    }
  }
  return op;
}

/// One concrete member of a non-bottom operand.
std::uint32_t sample(const Operand& op, Rng& rng) {
  switch (op.shape) {
    case Operand::Shape::kSet:
      return op.set[rng.next_below(op.set.size())];
    case Operand::Shape::kInterval:
      return op.lo + op.stride * static_cast<std::uint32_t>(rng.next_below(
                                     (op.hi - op.lo) / op.stride + 1));
    default:
      return rng.next_bool() ? near_base(rng) : rng.next_u32();
  }
}

/// x lies in the concretization of v: exact when v enumerates within the
/// budget, the [min, max] hull otherwise.
bool contains(const AbsVal& v, std::uint32_t x) {
  if (v.is_top()) return true;
  if (v.is_bottom() || x < v.min() || x > v.max()) return false;
  if (const auto members = v.enumerate(4096))
    return std::binary_search(members->begin(), members->end(), x);
  return true;
}

std::vector<std::uint32_t> sorted_unique(std::vector<std::uint32_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// {min, min + g, ..., max} with g the gcd of the gaps of a sorted set.
AbsVal gcd_hull(const std::vector<std::uint32_t>& sorted) {
  std::uint32_t g = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i)
    g = std::gcd(g, sorted[i] - sorted[i - 1]);
  return AbsVal::interval(sorted.front(), sorted.back(), g);
}

constexpr int kLatticeCases = 3000;

TEST(AbsVal, JoinIsCommutativeIdempotentAndAnUpperBound) {
  Rng rng(18);
  for (int i = 0; i < kLatticeCases; ++i) {
    const Operand a = random_operand(rng);
    const Operand b = random_operand(rng);
    const AbsVal j = AbsVal::join(a.v, b.v);
    ASSERT_TRUE(j == AbsVal::join(b.v, a.v)) << "case " << i;
    // The invariant the worklist's equal-operand fast path rests on.
    ASSERT_TRUE(AbsVal::join(a.v, a.v) == a.v) << "case " << i;
    for (const Operand* op : {&a, &b}) {
      if (op->shape == Operand::Shape::kBottom) continue;
      for (int k = 0; k < 8; ++k) {
        const std::uint32_t x = sample(*op, rng);
        ASSERT_TRUE(contains(j, x)) << "case " << i << " member " << x;
      }
    }
  }
}

TEST(AbsVal, WidenOfEqualOperandsIsIdentityAndWidenIsAnUpperBound) {
  Rng rng(19);
  for (int i = 0; i < kLatticeCases; ++i) {
    const Operand a = random_operand(rng);
    const Operand b = random_operand(rng);
    ASSERT_TRUE(AbsVal::widen(a.v, a.v, kThresholds) == a.v) << "case " << i;
    const AbsVal w = AbsVal::widen(a.v, b.v, kThresholds);
    for (const Operand* op : {&a, &b}) {
      if (op->shape == Operand::Shape::kBottom) continue;
      for (int k = 0; k < 8; ++k) {
        const std::uint32_t x = sample(*op, rng);
        ASSERT_TRUE(contains(w, x)) << "case " << i << " member " << x;
      }
    }
  }
}

TEST(AbsVal, TransferFunctionsAreConcretelySound) {
  struct Op {
    const char* name;
    AbsVal (*abstract)(const AbsVal&, const AbsVal&);
    std::uint32_t (*concrete)(std::uint32_t, std::uint32_t);
  };
  const Op ops[] = {
      {"add", AbsVal::add, [](std::uint32_t x, std::uint32_t y) { return x + y; }},
      {"sub", AbsVal::sub, [](std::uint32_t x, std::uint32_t y) { return x - y; }},
      {"mul", AbsVal::mul, [](std::uint32_t x, std::uint32_t y) { return x * y; }},
      {"and", AbsVal::and_, [](std::uint32_t x, std::uint32_t y) { return x & y; }},
      {"or", AbsVal::or_, [](std::uint32_t x, std::uint32_t y) { return x | y; }},
      {"xor", AbsVal::xor_, [](std::uint32_t x, std::uint32_t y) { return x ^ y; }},
      {"shl", AbsVal::shl,
       [](std::uint32_t x, std::uint32_t y) { return x << (y & 31); }},
      {"shr", AbsVal::shr,
       [](std::uint32_t x, std::uint32_t y) { return x >> (y & 31); }},
  };
  Rng rng(20);
  for (int i = 0; i < kLatticeCases; ++i) {
    const Operand a = random_operand(rng);
    Operand b = random_operand(rng);
    // Shifts by a small constant exercise the shape-preserving paths.
    if (rng.next_bool(0.25)) {
      b.shape = Operand::Shape::kSet;
      b.set = {static_cast<std::uint32_t>(rng.next_below(32))};
      b.v = AbsVal::constant(b.set[0]);
    }
    for (const Op& op : ops) {
      const AbsVal r = op.abstract(a.v, b.v);
      if (a.shape == Operand::Shape::kBottom ||
          b.shape == Operand::Shape::kBottom)
        continue;
      for (int k = 0; k < 8; ++k) {
        const std::uint32_t x = sample(a, rng);
        const std::uint32_t y = sample(b, rng);
        ASSERT_TRUE(contains(r, op.concrete(x, y)))
            << "case " << i << ": " << x << " " << op.name << " " << y;
      }
    }
  }
}

TEST(AbsVal, MoreThanMaxConstsCollapseToTheGcdStrideHull) {
  Rng rng(21);
  for (int i = 0; i < kLatticeCases; ++i) {
    std::vector<std::uint32_t> values;
    const std::size_t n = AbsVal::kMaxConsts + 1 + rng.next_below(40);
    const std::uint32_t base = near_base(rng) & 0xFFFFu;
    const std::uint32_t stride = 1 + static_cast<std::uint32_t>(rng.next_below(12));
    while (values.size() < n)
      values.push_back(base + stride * static_cast<std::uint32_t>(
                                           rng.next_below(4 * n)));
    const auto unique = sorted_unique(values);
    const AbsVal set = AbsVal::consts(values);
    if (unique.size() <= AbsVal::kMaxConsts) {
      const auto members = set.enumerate(AbsVal::kMaxConsts);
      ASSERT_TRUE(members) << "case " << i;
      EXPECT_EQ(*members, unique) << "case " << i;
      continue;
    }
    ASSERT_TRUE(set == gcd_hull(unique)) << "case " << i;
    // join and the pairwise products collapse by the same rule.
    const std::size_t half = unique.size() / 2;
    const std::vector<std::uint32_t> left(unique.begin(), unique.begin() + half);
    const std::vector<std::uint32_t> right(unique.begin() + half, unique.end());
    if (left.size() <= AbsVal::kMaxConsts &&
        right.size() <= AbsVal::kMaxConsts) {
      ASSERT_TRUE(AbsVal::join(AbsVal::consts(left), AbsVal::consts(right)) ==
                  set)
          << "case " << i;
    }
    const std::vector<std::uint32_t> small(unique.begin(),
                                           unique.begin() + AbsVal::kMaxConsts);
    const std::vector<std::uint32_t> offsets = {0u, 1u, 2u, 4u, 8u};
    std::vector<std::uint32_t> ors;
    for (const std::uint32_t x : small)
      for (const std::uint32_t y : offsets) ors.push_back(x | y);
    const auto ors_unique = sorted_unique(ors);
    const AbsVal expected = ors_unique.size() > AbsVal::kMaxConsts
                                ? gcd_hull(ors_unique)
                                : AbsVal::consts(ors);
    ASSERT_TRUE(AbsVal::or_(AbsVal::consts(small), AbsVal::consts(offsets)) ==
                expected)
        << "case " << i;
  }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string report_json(const Report& report) {
  json::Writer w(2);
  report.to_json(w);
  return w.str();
}

TEST(Json, ByteIdenticalAcrossRuns) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto img = seal_model(m, spec);
  const auto doc1 = report_json(lint(m, img, spec));
  const auto doc2 = report_json(lint(m, img, spec));
  EXPECT_EQ(doc1, doc2);
  EXPECT_NE(doc1.find("\"store-placement\""), std::string::npos) << doc1;
}

TEST(Json, RoundTripsThroughTheReader) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8 + 3] ^= 0x20;
  const auto doc = report_json(lint(m, img, spec));
  const auto value = json::parse(doc);
  json::Writer w(2);
  value.write(w);
  EXPECT_EQ(w.str(), doc);
}

TEST(Json, CountersAndVerdictMatchTheReport) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto doc = report_json(lint(m, seal_model(m, spec), spec));
  EXPECT_NE(doc.find("\"clean\": true"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"blocks_checked\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"errors\": 0"), std::string::npos) << doc;
}

TEST(Json, FindingsAreSortedDeterministically) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  m.blocks[0].inst_words[1] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_LT(report.findings[0].block, report.findings[1].block);
}

}  // namespace
}  // namespace sofia::verify
