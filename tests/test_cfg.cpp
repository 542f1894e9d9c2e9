#include <gtest/gtest.h>

#include "assembler/program.hpp"
#include "cfg/cfg.hpp"
#include "support/error.hpp"
#include "xform/normalize.hpp"

namespace sofia::cfg {
namespace {

Cfg build(const std::string& src) {
  return Cfg::build(assembler::assemble(src));
}

TEST(Cfg, StraightLineSingleRun) {
  const auto cfg = build("main:\n nop\n nop\n halt\n");
  EXPECT_EQ(cfg.leaders().size(), 1u);
  EXPECT_EQ(cfg.run_end(0), 3u);
  EXPECT_TRUE(cfg.reachable(0));
}

TEST(Cfg, BranchSplitsRuns) {
  const auto cfg = build(R"(
main:
  beq r1, r2, skip
  nop
skip:
  halt
)");
  // Leaders: 0 (entry), 1 (after branch), 2 (skip).
  ASSERT_EQ(cfg.leaders().size(), 3u);
  EXPECT_EQ(cfg.leaders()[0], 0u);
  EXPECT_EQ(cfg.leaders()[1], 1u);
  EXPECT_EQ(cfg.leaders()[2], 2u);
  // skip has two preds: branch-taken from 0, fall-through from 1.
  const auto& preds = cfg.preds(2);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].from, 0u);
  EXPECT_EQ(preds[0].kind, EdgeKind::kBranchTaken);
  EXPECT_EQ(preds[1].from, 1u);
  EXPECT_EQ(preds[1].kind, EdgeKind::kFallThrough);
}

TEST(Cfg, BranchFallEdgeRecorded) {
  const auto cfg = build(R"(
main:
  beq r1, r2, out
  nop
out:
  halt
)");
  const auto& after_branch = cfg.preds(1);
  ASSERT_EQ(after_branch.size(), 1u);
  EXPECT_EQ(after_branch[0].kind, EdgeKind::kBranchFall);
}

TEST(Cfg, CallAndReturnEdges) {
  const auto cfg = build(R"(
main:
  call f
  halt
f:
  ret
)");
  // f's entry (index 2) has a call pred from 0.
  const auto& fpreds = cfg.preds(2);
  ASSERT_EQ(fpreds.size(), 1u);
  EXPECT_EQ(fpreds[0].kind, EdgeKind::kCall);
  // Return site (index 1) has a return edge from f's ret (index 2).
  const auto& rpreds = cfg.preds(1);
  ASSERT_EQ(rpreds.size(), 1u);
  EXPECT_EQ(rpreds[0].kind, EdgeKind::kReturn);
  EXPECT_EQ(rpreds[0].from, 2u);
}

TEST(Cfg, FunctionDiscovery) {
  const auto cfg = build(R"(
main:
  call f
  call f
  halt
f:
  addi r1, r1, 1
  ret
)");
  ASSERT_EQ(cfg.functions().size(), 2u);  // <entry> and f
  const auto* f = cfg.function_at(3);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->name, "f");
  EXPECT_EQ(f->call_sites.size(), 2u);
  ASSERT_EQ(f->rets.size(), 1u);
  EXPECT_EQ(f->rets[0], 4u);
  // Return edges to both return sites.
  EXPECT_EQ(cfg.preds(1).size(), 1u);
  EXPECT_EQ(cfg.preds(2).size(), 1u);
}

TEST(Cfg, RecursiveFunction) {
  const auto cfg = build(R"(
main:
  call f
  halt
f:
  beqz r1, base
  addi r1, r1, -1
  call f
  nop
base:
  ret
)");
  const auto* f = cfg.function_at(2);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->call_sites.size(), 2u);  // from main and from itself
  EXPECT_EQ(f->rets.size(), 1u);
}

TEST(Cfg, UnreachableCodeDetected) {
  const auto cfg = build(R"(
main:
  j end
dead:
  nop
  j end
end:
  halt
)");
  EXPECT_TRUE(cfg.reachable(0));
  EXPECT_FALSE(cfg.reachable(1));
  EXPECT_TRUE(cfg.reachable(3));
}

TEST(Cfg, JumpTargetsBecomeLeaders) {
  const auto cfg = build(R"(
main:
  nop
  j target
  nop
target:
  halt
)");
  EXPECT_TRUE(cfg.is_leader(3));
  EXPECT_TRUE(cfg.is_leader(2));  // after control
  EXPECT_FALSE(cfg.is_leader(1));
}

TEST(Cfg, ErrorOnRunOffEnd) {
  EXPECT_THROW(build("main:\n nop\n"), TransformError);
  EXPECT_THROW(build("main:\n beq r1, r2, main\n"), TransformError);
}

TEST(Cfg, ErrorOnUnannotatedIndirectJump) {
  EXPECT_THROW(build(R"(
main:
  la r4, f
  jalr lr, r4
  halt
f:
  ret
)"),
               TransformError);
}

TEST(Cfg, RetPseudoRecognized) {
  isa::Instruction ret;
  ret.op = isa::Opcode::kJalr;
  ret.ra = isa::kRegLr;
  EXPECT_TRUE(isa::is_ret(ret));
  ret.imm = 4;
  EXPECT_FALSE(isa::is_ret(ret));
  ret.imm = 0;
  ret.rd = 1;
  EXPECT_FALSE(isa::is_ret(ret));
}

TEST(Cfg, RetInUncalledEntryRejected) {
  EXPECT_THROW(build("main:\n ret\n"), TransformError);
}

TEST(Cfg, SharedEpilogueAcrossFunctionsRejected) {
  // f falls through into g's ret; both f and g are called.
  EXPECT_THROW(build(R"(
main:
  call f
  call g
  halt
f:
  nop
g:
  ret
)"),
               TransformError);
}

TEST(Cfg, EdgeKindNames) {
  EXPECT_EQ(to_string(EdgeKind::kCall), "call");
  EXPECT_EQ(to_string(EdgeKind::kReturn), "return");
  EXPECT_EQ(to_string(EdgeKind::kBranchTaken), "branch-taken");
}

// ---------------------------------------------------------------------------
// Normalization passes.
// ---------------------------------------------------------------------------

TEST(Devirtualize, ExpandsAnnotatedCall) {
  const auto prog = assembler::assemble(R"(
main:
  la r4, f
  .targets f, g
  jalr lr, r4
  halt
f:
  ret
g:
  ret
)");
  const auto out = xform::devirtualize(prog);
  // No non-ret jalr left.
  for (const auto& si : out.text) {
    if (si.inst.op == isa::Opcode::kJalr) {
      EXPECT_TRUE(isa::is_ret(si.inst));
    }
  }
  // And the result builds a CFG where f has two call sites? No — one
  // devirtualized site per target, so one call edge each.
  const auto cfg = Cfg::build(out);
  const auto* f = cfg.function_at(out.text_labels.at("f"));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->call_sites.size(), 1u);
}

TEST(Devirtualize, JumpFormUsesPlainJumps) {
  const auto prog = assembler::assemble(R"(
main:
  la r4, a
  .targets a, b
  jr r4
a:
  halt
b:
  halt
)");
  const auto out = xform::devirtualize(prog);
  for (const auto& si : out.text) EXPECT_NE(si.inst.op, isa::Opcode::kJalr);
  // Builds a valid CFG.
  EXPECT_NO_THROW(Cfg::build(out));
}

TEST(Devirtualize, PreservesLabelsAcrossExpansion) {
  const auto prog = assembler::assemble(R"(
main:
  .targets f
  jalr lr, r4
after:
  halt
f:
  ret
)");
  const auto out = xform::devirtualize(prog);
  // 'after' must still point at the halt.
  EXPECT_EQ(out.text[out.text_labels.at("after")].inst.op, isa::Opcode::kHalt);
  EXPECT_EQ(out.text[out.text_labels.at("f")].inst.op, isa::Opcode::kJalr);
}

TEST(Devirtualize, RejectsScratchRegisterBase) {
  const auto prog = assembler::assemble(R"(
main:
  .targets f
  jalr lr, r13
  halt
f:
  ret
)");
  EXPECT_THROW(xform::devirtualize(prog), TransformError);
}

TEST(Devirtualize, RejectsNonZeroOffset) {
  const auto prog = assembler::assemble(R"(
main:
  .targets f
  jalr lr, r4, 8
  halt
f:
  ret
)");
  EXPECT_THROW(xform::devirtualize(prog), TransformError);
}

TEST(MergeReturns, SingleEpiloguePerFunction) {
  const auto prog = assembler::assemble(R"(
main:
  call f
  halt
f:
  beqz r1, alt
  ret
alt:
  addi r2, r2, 1
  ret
)");
  const auto out = xform::merge_returns(prog);
  const auto cfg = Cfg::build(out);
  const auto* f = cfg.function_at(out.text_labels.at("f"));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rets.size(), 1u);
}

TEST(MergeReturns, NoChangeForSingleRet) {
  const auto prog = assembler::assemble(R"(
main:
  call f
  halt
f:
  ret
)");
  const auto out = xform::merge_returns(prog);
  EXPECT_EQ(out.text.size(), prog.text.size());
  EXPECT_EQ(out.text[2].inst.op, isa::Opcode::kJalr);
}

TEST(MergeReturns, ThreeReturnsCollapseToOne) {
  const auto prog = assembler::assemble(R"(
main:
  call f
  halt
f:
  beqz r1, a
  beqz r2, b
  ret
a:
  addi r3, r3, 1
  ret
b:
  addi r3, r3, 2
  ret
)");
  const auto out = xform::merge_returns(prog);
  const auto cfg = Cfg::build(out);
  const auto* f = cfg.function_at(out.text_labels.at("f"));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rets.size(), 1u);
}

TEST(MergeReturns, TwoFunctionsEachMerged) {
  const auto prog = assembler::assemble(R"(
main:
  call f
  call g
  halt
f:
  beqz r1, fa
  ret
fa:
  ret
g:
  beqz r2, ga
  ret
ga:
  ret
)");
  const auto out = xform::merge_returns(prog);
  const auto cfg = Cfg::build(out);
  for (const auto& fn : cfg.functions()) {
    EXPECT_LE(fn.rets.size(), 1u) << fn.name;
  }
}

TEST(Cfg, LoopBackEdgeMakesHeaderAJoin) {
  const auto cfg = build(R"(
main:
  li r1, 5
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  const std::uint32_t header = 1;  // 'loop' label
  EXPECT_TRUE(cfg.is_leader(header));
  // Preds: fall-through from li and the taken back edge.
  EXPECT_EQ(cfg.preds(header).size(), 2u);
}

TEST(Cfg, NestedLoops) {
  const auto cfg = build(R"(
main:
  li r1, 3
outer:
  li r2, 4
inner:
  addi r2, r2, -1
  bnez r2, inner
  addi r1, r1, -1
  bnez r1, outer
  halt
)");
  EXPECT_TRUE(cfg.reachable(0));
  // Both headers are joins.
  EXPECT_EQ(cfg.preds(1).size(), 2u);  // outer
  EXPECT_EQ(cfg.preds(2).size(), 2u);  // inner
}

TEST(Devirtualize, ManyTargetsExpandLinearly) {
  const auto prog = assembler::assemble(R"(
main:
  .targets f0, f1, f2, f3
  jalr lr, r4
  halt
f0: ret
f1: ret
f2: ret
f3: ret
)");
  const auto out = xform::devirtualize(prog);
  // Per target: la(2) + beq(1) at the head, jal + j at the case = 5, plus
  // one trap halt. 4 targets -> 21 instructions replacing 1.
  EXPECT_EQ(out.text.size(), prog.text.size() - 1 + 21);
  EXPECT_NO_THROW(Cfg::build(out));
}

TEST(Devirtualize, IdempotentWhenNoIndirectJumps) {
  const auto prog = assembler::assemble("main:\n nop\n halt\n");
  const auto out = xform::devirtualize(prog);
  EXPECT_EQ(out.text.size(), prog.text.size());
}

}  // namespace
}  // namespace sofia::cfg
