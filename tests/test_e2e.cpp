// End-to-end equivalence: every program must behave identically on the
// vanilla pipeline and after the full SOFIA transform (assemble ->
// devirtualize/merge-returns -> block packing -> MAC-then-Encrypt ->
// decrypting/verifying fetch). This exercises the complete architecture of
// the paper on benign inputs; the security tests cover tampered ones.
#include <gtest/gtest.h>

#include <ostream>

#include "sim_test_util.hpp"

namespace sofia {
namespace {

using test::expect_equivalent;
using test::run_sofia;
using xform::BlockPolicy;
using xform::Options;

TEST(E2E, MinimalHalt) { expect_equivalent("main:\n halt\n"); }

TEST(E2E, StraightLineArithmetic) {
  expect_equivalent(R"(
main:
  li r1, 1000
  li r2, 2016
  add r3, r1, r2
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  halt
)");
}

TEST(E2E, LongStraightLineSpansBlocks) {
  std::string src = "main:\n";
  for (int i = 0; i < 40; ++i)
    src += "  addi r1, r1, " + std::to_string(i % 7) + "\n";
  src += "  li r10, 0xFFFF0008\n  sw r1, 0(r10)\n  halt\n";
  expect_equivalent(src);
}

TEST(E2E, LoopWithBackwardBranch) {
  expect_equivalent(R"(
main:
  li r1, 0
  li r2, 25
loop:
  add r1, r1, r2
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)");
}

TEST(E2E, IfElseDiamond) {
  expect_equivalent(R"(
main:
  li r1, 7
  li r2, 3
  blt r1, r2, less
  sub r3, r1, r2
  j join
less:
  sub r3, r2, r1
join:
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  halt
)");
}

TEST(E2E, BranchFallIntoJoin) {
  // The not-taken side of the first branch falls directly into a join
  // leader -> exercises the thunk-block path.
  expect_equivalent(R"(
main:
  li r1, 1
  beqz r1, elsewhere
  beqz r0, join
join:
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
elsewhere:
  j join
)");
}

TEST(E2E, SingleCallReturn) {
  expect_equivalent(R"(
main:
  li r1, 21
  call twice
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
twice:
  add r1, r1, r1
  ret
)");
}

TEST(E2E, TwoCallersShareCallee) {
  expect_equivalent(R"(
main:
  li r1, 1
  call inc
  call inc
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
inc:
  addi r1, r1, 1
  ret
)");
}

TEST(E2E, ManyCallersBuildTree) {
  expect_equivalent(R"(
main:
  li r1, 0
  call inc
  call inc
  call inc
  call inc
  call inc
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
inc:
  addi r1, r1, 1
  ret
)");
}

TEST(E2E, CallInsideLoop) {
  expect_equivalent(R"(
main:
  li r1, 0
  li r2, 6
loop:
  call add5
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
add5:
  addi r1, r1, 5
  ret
)");
}

TEST(E2E, NestedCalls) {
  expect_equivalent(R"(
main:
  li r1, 3
  call outer
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
outer:
  addi sp, sp, -4
  sw lr, 0(sp)
  call inner
  call inner
  lw lr, 0(sp)
  addi sp, sp, 4
  ret
inner:
  add r1, r1, r1
  ret
)");
}

TEST(E2E, RecursiveFibonacci) {
  expect_equivalent(R"(
main:
  li r1, 10
  call fib
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
fib:                    ; r2 = fib(r1)
  li r3, 2
  blt r1, r3, base
  addi sp, sp, -12
  sw lr, 0(sp)
  sw r1, 4(sp)
  addi r1, r1, -1
  call fib
  sw r2, 8(sp)
  lw r1, 4(sp)
  addi r1, r1, -2
  call fib
  lw r3, 8(sp)
  add r2, r2, r3
  lw lr, 0(sp)
  addi sp, sp, 12
  ret
base:
  mv r2, r1
  ret
)");
}

TEST(E2E, MultiRetFunctionMergesEpilogue) {
  expect_equivalent(R"(
main:
  li r1, 4
  call classify
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  li r1, -4
  call classify
  sw r2, 0(r10)
  halt
classify:
  bltz r1, neg
  li r2, 1
  ret
neg:
  li r2, -1
  ret
)");
}

TEST(E2E, DevirtualizedIndirectCall) {
  expect_equivalent(R"(
main:
  la r4, add10
  li r1, 5
  .targets add10, add20
  jalr lr, r4
  la r4, add20
  .targets add10, add20
  jalr lr, r4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
add10:
  addi r1, r1, 10
  ret
add20:
  addi r1, r1, 20
  ret
)");
}

TEST(E2E, DevirtualizedIndirectJump) {
  expect_equivalent(R"(
main:
  li r1, 1
  la r4, case_b
  .targets case_a, case_b
  jr r4
case_a:
  li r2, 100
  j out
case_b:
  li r2, 200
  j out
out:
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
)");
}

TEST(E2E, FunctionPointerFromDataTable) {
  expect_equivalent(R"(
main:
  la r4, table
  lw r5, 4(r4)      ; second entry: g
  li r1, 3
  .targets f, g
  jalr lr, r5
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f:
  addi r1, r1, 1
  ret
g:
  mul r1, r1, r1
  ret
.data
table: .word f, g
)");
}

TEST(E2E, StoreHeavyProgram) {
  expect_equivalent(R"(
main:
  la r1, buf
  li r2, 8
  li r3, 0
fill:
  sw r3, 0(r1)
  addi r1, r1, 4
  addi r3, r3, 3
  addi r2, r2, -1
  bnez r2, fill
  la r1, buf
  lw r4, 28(r1)
  li r10, 0xFFFF0008
  sw r4, 0(r10)
  halt
.data
buf: .space 32
)");
}

TEST(E2E, MemoryStateMatchesAfterRun) {
  // Outputs every buffer byte so memory effects are observable.
  expect_equivalent(R"(
main:
  la r1, buf
  li r2, 0x11
  sb r2, 0(r1)
  sh r2, 2(r1)
  li r3, 4
dump:
  lbu r4, 0(r1)
  li r10, 0xFFFF0008
  sw r4, 0(r10)
  addi r1, r1, 1
  addi r3, r3, -1
  bnez r3, dump
  halt
.data
buf: .space 8
)");
}

TEST(E2E, EntryFunctionCalledByOthers) {
  // main is both the reset target and a call target: the entry leader is a
  // join between the reset edge and a call edge.
  expect_equivalent(R"(
.entry start
start:
  li r5, 1
  beqz r5, boot        ; on re-entry r5 != 0
  li r10, 0xFFFF0008
  sw r5, 0(r10)
  halt
boot:
  j start
)");
}

TEST(E2E, SwitchViaBranchChain) {
  expect_equivalent(R"(
main:
  li r1, 2
  beqz r1, c0
  addi r2, r1, -1
  beqz r2, c1
  addi r2, r1, -2
  beqz r2, c2
  li r3, -1
  j out
c0:
  li r3, 10
  j out
c1:
  li r3, 11
  j out
c2:
  li r3, 12
  j out
out:
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  halt
)");
}

// ---------------------------------------------------------------------------
// Policy / granularity sweeps (parameterized).
// ---------------------------------------------------------------------------

struct Variant {
  const char* name;
  BlockPolicy policy;
  crypto::Granularity granularity;
};

// Print a variant by its name (see TamperSuite's PrintTo in test_scheme):
// the raw bytes would put the name pointer into the discovered test names.
void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class E2EVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(E2EVariants, MixedWorkloadEquivalent) {
  Options opts;
  opts.policy = GetParam().policy;
  opts.granularity = GetParam().granularity;
  test::expect_equivalent(R"(
main:
  li r1, 0
  li r2, 5
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r3, buf
  sw r1, 0(r3)
  lw r4, 0(r3)
  li r10, 0xFFFF0008
  sw r4, 0(r10)
  halt
work:
  addi r1, r1, 7
  beqz r1, never
  addi r1, r1, 1
never:
  ret
.data
buf: .word 0
)",
                          opts);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndGranularities, E2EVariants,
    ::testing::Values(
        Variant{"paper_perword", BlockPolicy::paper_default(),
                crypto::Granularity::kPerWord},
        Variant{"paper_perpair", BlockPolicy::paper_default(),
                crypto::Granularity::kPerPair},
        Variant{"small_perword", BlockPolicy::small_unrestricted(),
                crypto::Granularity::kPerWord},
        Variant{"small_perpair", BlockPolicy::small_unrestricted(),
                crypto::Granularity::kPerPair},
        Variant{"wide_perpair", BlockPolicy{12, 4},
                crypto::Granularity::kPerPair},
        Variant{"wide16_perword", BlockPolicy{16, 4},
                crypto::Granularity::kPerWord}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// SOFIA-specific sanity.
// ---------------------------------------------------------------------------

TEST(E2E, SofiaStatsShowMacMachinery) {
  const auto r = run_sofia(R"(
main:
  li r1, 0
  li r2, 10
loop:
  add r1, r1, r2
  addi r2, r2, -1
  bnez r2, loop
  halt
)");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.stats.blocks_fetched, 10u);
  EXPECT_EQ(r.stats.mac_verifications, r.stats.blocks_fetched);
  EXPECT_GT(r.stats.ctr_ops, 0u);
  EXPECT_GT(r.stats.cbc_ops, 0u);
  EXPECT_EQ(r.stats.mac_words, 2 * r.stats.blocks_fetched);
}

TEST(E2E, SofiaSlowerThanVanillaButSameResult) {
  const std::string src = R"(
main:
  li r1, 0
  li r2, 50
loop:
  add r1, r1, r2
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)";
  const auto v = test::run_vanilla(src);
  const auto s = run_sofia(src);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(v.output, s.output);
  EXPECT_GT(s.stats.cycles, v.stats.cycles);
}

TEST(E2E, WrongKeysReset) {
  const auto keys = test::test_keys();
  const auto result = test::transform_source(R"(
main:
  li r1, 1
  halt
)",
                                             keys);
  auto wrong = keys;
  wrong.k1[0] ^= 1;
  const auto r = sim::run_image(result.image, test::sofia_config(wrong));
  EXPECT_EQ(r.status, sim::RunResult::Status::kReset);
}

TEST(E2E, WrongOmegaReset) {
  // Replaying a binary built for a different program version (different
  // nonce) must not run: the device's counter uses the header omega... the
  // attack modeled here patches the header to an old version's omega.
  const auto keys = test::test_keys();
  auto result = test::transform_source("main:\n li r1, 1\n halt\n", keys);
  result.image.omega ^= 0x1234;  // header tamper
  const auto r = sim::run_image(result.image, test::sofia_config(keys));
  EXPECT_EQ(r.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(r.reset.cause, sim::ResetCause::kMacMismatch);
}

}  // namespace
}  // namespace sofia
