// Microarchitectural behavior tests: trace facility, speculation squash,
// store gating, engine policies, fetch-width configs, fault injection, the
// opened-block memo and the pinned work counters of both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/cipher_engine.hpp"
#include "sim/fetch.hpp"
#include "sim_test_util.hpp"
#include "support/hash.hpp"
#include "workloads/workloads.hpp"

namespace sofia::sim {
namespace {

using test::sofia_config;
using test::test_keys;
using test::transform_source;

TEST(Trace, RecordsExecutedInstructionsInOrder) {
  const auto prog = assembler::assemble(R"(
main:
  addi r1, r0, 1
  addi r2, r0, 2
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  const auto run = run_image(img, cfg);
  ASSERT_EQ(run.trace.size(), 3u);
  EXPECT_EQ(run.trace[0].pc, 0u);
  EXPECT_EQ(run.trace[1].pc, 4u);
  EXPECT_EQ(run.trace[2].pc, 8u);
  EXPECT_LT(run.trace[0].cycle, run.trace[2].cycle);
  const std::string text = format_trace(run.trace);
  EXPECT_NE(text.find("addi r1, r0, 1"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Trace, CapsAtMaxTrace) {
  const auto prog = assembler::assemble(R"(
main:
  li r1, 100
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  cfg.max_trace = 10;
  const auto run = run_image(img, cfg);
  EXPECT_EQ(run.trace.size(), 10u);
}

TEST(Trace, WrongPathInstructionsNeverExecute) {
  // Speculation past a taken branch must be squashed: the instruction after
  // the branch never appears in the trace.
  const auto prog = assembler::assemble(R"(
main:
  li r1, 1
  bnez r1, target      ; always taken
  addi r2, r0, 99      ; wrong path
target:
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  const auto run = run_image(img, cfg);
  for (const auto& entry : run.trace) {
    const auto inst = isa::decode(entry.word);
    ASSERT_TRUE(inst.has_value());
    EXPECT_FALSE(inst->op == isa::Opcode::kAddi && inst->imm == 99)
        << "wrong-path instruction executed";
  }
}

TEST(Trace, SofiaTraceMatchesVanillaInstructionSequence) {
  // Filter out SOFIA padding NOPs: the remaining dynamic instruction stream
  // must be identical (same opcodes in the same order).
  const std::string src = R"(
main:
  li r1, 4
  li r2, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto prog = assembler::assemble(src);
  SimConfig vcfg;
  vcfg.collect_trace = true;
  const auto vrun = run_image(assembler::link_vanilla(prog), vcfg);

  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto scfg = sofia_config(keys);
  scfg.collect_trace = true;
  const auto srun = run_image(result.image, scfg);

  // The transformer adds padding NOPs and synthesized unconditional jumps
  // (run-end joins); drop both from each side before comparing opcodes.
  const auto filter = [](const std::vector<TraceEntry>& trace) {
    std::vector<std::uint32_t> words;
    for (const auto& e : trace) {
      if (e.word == 0) continue;  // NOP
      const auto inst = isa::decode(e.word);
      if (inst && inst->op == isa::Opcode::kJal && inst->rd == isa::kRegZero)
        continue;  // plain jump (synthesized or layout-specific)
      words.push_back(e.word);
    }
    return words;
  };
  const auto vwords = filter(vrun.trace);
  const auto swords = filter(srun.trace);
  // Branch immediates differ between layouts; compare opcode sequences.
  ASSERT_EQ(vwords.size(), swords.size());
  for (std::size_t i = 0; i < vwords.size(); ++i)
    EXPECT_EQ(vwords[i] >> 26, swords[i] >> 26) << "position " << i;
}

TEST(StoreGate, StallsAccountedOnlyForSofia) {
  const std::string src = R"(
main:
  la r1, buf
  sw r0, 0(r1)
  sw r0, 4(r1)
  halt
.data
buf: .space 8
)";
  const auto vrun = test::run_vanilla(src);
  EXPECT_EQ(vrun.stats.store_gate_stalls, 0u);
  const auto srun = test::run_sofia(src);
  ASSERT_TRUE(srun.ok());
  EXPECT_GT(srun.stats.store_gate_stalls, 0u);
}

TEST(StoreGate, HeadstartReducesStalls) {
  const std::string src = R"(
main:
  la r1, buf
  li r2, 16
loop:
  sw r2, 0(r1)
  sw r2, 4(r1)
  addi r2, r2, -1
  bnez r2, loop
  halt
.data
buf: .space 8
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto strict = sofia_config(keys);
  strict.store_gate_headstart = 0;
  auto relaxed = sofia_config(keys);
  relaxed.store_gate_headstart = 5;
  const auto a = run_image(result.image, strict);
  const auto b = run_image(result.image, relaxed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.stats.store_gate_stalls, b.stats.store_gate_stalls);
  EXPECT_GE(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.output, b.output);
}

TEST(CipherEngineFlush, IterativeInFlightOpDrainsAcrossFlush) {
  // Regression: flush() used to rewind next_any_slot_ to the flush cycle
  // even while an iterative op occupied the instance, letting the first
  // post-redirect op start on busy hardware.
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 18u);  // busy [10,18)
  engine.flush(12);  // redirect mid-op
  // The next op may start only once the in-flight op drains at 18.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 12), 26u);
}

TEST(CipherEngineFlush, IterativeQueuedOpsAreDropped) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 18u);  // in flight
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCbc, 10), 26u);  // queued
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 34u);  // queued
  engine.flush(12);
  // Queued work is squashed: only the in-flight drain (cycle 18) remains.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCbc, 12), 26u);
}

TEST(CipherEngineFlush, IterativeFlushAfterDrainFreesEngine) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);  // busy [10,18)
  engine.flush(30);                             // long after the drain
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 30), 38u);
}

TEST(CipherEngineFlush, DoubleFlushKeepsTheDrainingOpBusy) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);  // busy [10,18)
  engine.flush(11);
  engine.flush(13);  // second redirect before the drain completes
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 13), 26u);
}

TEST(CipherEngineFlush, InFlightOpSurvivesDeepRunAheadHistory) {
  // Regression for the history backstop: with a deep iterative cipher and
  // many run-ahead ops queued after the in-flight one, the op occupying
  // the engine at the redirect must still be found by flush().
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 26;
  CipherEngine engine(timing);
  engine.flush(0);  // a prior redirect pins the prune horizon
  for (int i = 0; i < 40; ++i) engine.schedule(CipherEngine::Op::kCtr, 100);
  engine.flush(110);  // inside the first op's [100, 126) busy window
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 110), 126u + 26u);
}

TEST(CipherEngineFlush, PipelinedSlotsFreeImmediately) {
  CipherTiming timing;  // pipelined, alternating (paper default)
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);
  engine.schedule(CipherEngine::Op::kCtr, 10);
  engine.flush(12);
  // Squashed ops drain out of the stage registers; the next CTR op starts
  // on the first even cycle at or after the redirect.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 12), 14u);
}

TEST(EngineConfig, IterativeEngineSlowerThanPipelined) {
  const std::string src = R"(
main:
  li r1, 40
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto pipelined = sofia_config(keys);
  auto iterative = sofia_config(keys);
  iterative.cipher.pipelined = false;
  const auto a = run_image(result.image, pipelined);
  const auto b = run_image(result.image, iterative);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.stats.cycles, b.stats.cycles);
}

TEST(EngineConfig, HigherLatencyCostsCycles) {
  const std::string src = "main:\n li r1, 9\nloop:\n addi r1, r1, -1\n bnez r1, loop\n halt\n";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  std::uint64_t prev = 0;
  for (const std::uint32_t latency : {2u, 8u, 26u}) {
    auto cfg = sofia_config(keys);
    cfg.cipher.latency = latency;
    cfg.cipher.pipelined = false;
    const auto run = run_image(result.image, cfg);
    ASSERT_TRUE(run.ok()) << latency;
    EXPECT_GT(run.stats.cycles, prev) << latency;
    prev = run.stats.cycles;
  }
}

TEST(FetchWidth, NarrowFetchNeverFaster) {
  const std::string src = R"(
main:
  li r1, 30
loop:
  addi r2, r2, 3
  addi r3, r3, 5
  add r2, r2, r3
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto wide = sofia_config(keys);
  wide.fetch_words_per_cycle = 2;
  auto narrow = sofia_config(keys);
  narrow.fetch_words_per_cycle = 1;
  const auto a = run_image(result.image, wide);
  const auto b = run_image(result.image, narrow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.output, b.output);
}

TEST(Fault, VanillaFaultCanSilentlyCorrupt) {
  // Flip the immediate bit of 'li r1, 4' -> vanilla prints a wrong value.
  const std::string src = R"(
main:
  li r1, 4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)";
  const auto prog = assembler::assemble(src);
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 0;  // the li itself
  cfg.fault.bit = 1;          // imm bit: 4 -> 6
  const auto run = run_image(img, cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.output, "6\n");
}

TEST(Fault, SofiaDetectsSameFault) {
  const std::string src = R"(
main:
  li r1, 4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto cfg = sofia_config(keys);
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 2;  // first instruction word of the first block
  cfg.fault.bit = 1;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kReset);
  EXPECT_EQ(run.reset.cause, ResetCause::kMacMismatch);
  EXPECT_TRUE(run.output.empty());
}

TEST(Fault, FaultOnStoredMacWordDetected) {
  const auto keys = test_keys();
  const auto result = transform_source("main:\n li r1, 1\n halt\n", keys);
  auto cfg = sofia_config(keys);
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 0;  // M1 of the entry block
  cfg.fault.bit = 13;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kReset);
}

TEST(Fault, FaultOnAWarmRevisitStillResets) {
  // `j main` re-enters one block for the whole run. After its first two
  // visits (the reset entry and the first back edge) every visit reuses
  // what the backend opened before (the cycle machine's opened-block memo,
  // the functional backend's block cache); a fault armed far past them
  // lands on such a warm revisit and must miss the reuse on the flipped
  // word and reset at that block, exactly like a fault on the very first
  // fetch.
  const auto keys = test_keys();
  const auto result = transform_source("main:\n j main\n", keys);
  for (const char* backend : {"cycle", "functional"}) {
    SCOPED_TRACE(backend);
    const auto be = make_backend(backend);
    auto cfg = sofia_config(keys);
    cfg.max_cycles = 3000;
    cfg.fault.enabled = true;
    cfg.fault.bit = 5;
    // Armed past the end: the run fetches every word and counts each visit.
    cfg.fault.fetch_index = 1ull << 40;
    const auto clean = be->run(result.image, cfg);
    ASSERT_EQ(clean.status, RunResult::Status::kMaxCycles);
    const std::uint64_t warm_index = 10ull * cfg.policy.words_per_block;
    ASSERT_GT(clean.stats.blocks_fetched, 20u);  // the run fetches past it
    ASSERT_GT(clean.stats.fetch_words, warm_index);

    cfg.fault.fetch_index = 0;
    const auto cold = be->run(result.image, cfg);
    cfg.fault.fetch_index = warm_index;
    const auto warm = be->run(result.image, cfg);
    for (const auto* run : {&cold, &warm}) {
      EXPECT_EQ(run->status, RunResult::Status::kReset);
      EXPECT_EQ(run->reset.cause, ResetCause::kMacMismatch);
    }
    EXPECT_EQ(warm.reset.pc, cold.reset.pc);
    EXPECT_GT(warm.reset.cycle, cold.reset.cycle);
  }
}

// ---------------------------------------------------------------------------
// Opened-block memo
// ---------------------------------------------------------------------------

/// A stand-in opener: counts its calls, echoes the raw words as plaintext
/// and verifies only the one block it was built for (prev word and raw
/// words both as sealed).
class CountingOpener final : public scheme::Opener {
 public:
  CountingOpener(int& calls, std::uint32_t prev, std::vector<std::uint32_t> raw)
      : calls_(calls), good_prev_(prev), good_raw_(std::move(raw)) {}

  scheme::DeviceBlock open(std::uint32_t /*base_word*/, std::uint32_t prev_word,
                           const scheme::EntryPath& path,
                           const std::vector<std::uint32_t>& raw) const override {
    ++calls_;
    scheme::DeviceBlock dev;
    dev.first_inst = path.first_inst;
    dev.plain = raw;
    if (prev_word != good_prev_ || raw != good_raw_)
      dev.verify_cause = ResetCause::kMacMismatch;
    return dev;
  }

 private:
  int& calls_;
  std::uint32_t good_prev_;
  std::vector<std::uint32_t> good_raw_;
};

TEST(OpenedBlockMemo, ReusesOnlyAnOpenOfTheSameWords) {
  const std::vector<std::uint32_t> sealed = {11, 12, 13, 14, 15, 16, 17, 18};
  const auto path = scheme::entry_path(0, 8);
  int calls = 0;
  OpenedBlockMemo memo(std::make_unique<CountingOpener>(calls, 5, sealed));

  // Same (target, prev, raw): the second open is a hit.
  EXPECT_EQ(memo.open(100, 5, path, sealed).verify_cause, ResetCause::kNone);
  EXPECT_EQ(memo.open(100, 5, path, sealed).verify_cause, ResetCause::kNone);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(memo.hits(), 1u);

  // One flipped raw word re-opens and returns the opener's fresh verdict;
  // the restored words re-open again (the entry was replaced).
  auto flipped = sealed;
  flipped[3] ^= 1u << 7;
  const auto& tampered = memo.open(100, 5, path, flipped);
  EXPECT_EQ(tampered.verify_cause, ResetCause::kMacMismatch);
  EXPECT_EQ(tampered.plain, flipped);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(memo.open(100, 5, path, sealed).verify_cause, ResetCause::kNone);
  EXPECT_EQ(calls, 3);

  // A different prev word is a separate entry: it opens on its own and
  // leaves the (100, 5) entry warm.
  EXPECT_EQ(memo.open(100, 6, path, sealed).verify_cause, ResetCause::kMacMismatch);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(memo.open(100, 5, path, sealed).verify_cause, ResetCause::kNone);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.misses(), 4u);
}

// ---------------------------------------------------------------------------
// Pinned work counters
// ---------------------------------------------------------------------------

void render_run(const RunResult& r, std::string& out) {
  const SimStats& s = r.stats;
  out += std::string(to_string(r.status)) + " " + std::string(to_string(r.reset.cause)) +
         " " + std::to_string(r.reset.cycle) + " " + std::to_string(r.reset.pc) + " " +
         std::to_string(r.exit_code) + "\n" + r.output;
  for (const std::uint64_t v :
       {s.cycles, s.insts, s.nops, s.loads, s.stores, s.branches, s.taken,
        s.icache_hits, s.icache_misses, s.fetch_words, s.mac_words, s.ctr_ops,
        s.cbc_ops, s.blocks_fetched, s.mac_verifications, s.store_gate_stalls,
        s.queue_empty_cycles, s.exec_stall_cycles})
    out += std::to_string(v) + " ";
  out += "\n";
}

/// The clean run of a session's image and of its vanilla baseline.
void render_clean_runs(pipeline::Pipeline& p, std::string& out) {
  render_run(p.run(), out);
  render_run(p.run_vanilla(), out);
}

/// Every counter `backend` reports, for every workload x scheme x cipher at
/// a small size, rendered as one document by `render` (by default the
/// clean run plus the vanilla baseline).
std::string render_all_runs(
    const std::string& backend,
    void (*render)(pipeline::Pipeline&, std::string&) = render_clean_runs) {
  std::string rendered;
  for (const auto& spec : workloads::all_workloads()) {
    const std::uint32_t size = std::max<std::uint32_t>(8, spec.default_size / 8);
    for (const auto& scheme : scheme::scheme_names()) {
      for (const auto ck : {crypto::CipherKind::kRectangle80,
                            crypto::CipherKind::kSpeck64_128}) {
        auto profile = pipeline::DeviceProfile::example(ck);
        profile.scheme = scheme;
        profile.backend = backend;
        auto p = pipeline::Pipeline::from_workload(spec.name, 1, size, profile);
        rendered += spec.name + " " + scheme + " " + std::string(crypto::to_string(ck)) + "\n";
        render(p, rendered);
      }
    }
  }
  return rendered;
}

/// The session's image under a fetch fault armed at the first fetched
/// word, inside the entry block, halfway through the run (a warm revisit
/// of some block on every looping workload) and just past the last fetch.
/// The budget is twice the clean run, so a fault that derails a `null`
/// image into a loop still ends quickly.
void render_fault_armed_runs(pipeline::Pipeline& p, std::string& out) {
  sim::SimConfig cfg;
  cfg.max_cycles = 2 * p.run().stats.insts + 1000;
  cfg.fault.enabled = true;
  cfg.fault.bit = 5;
  cfg.fault.fetch_index = 1ull << 40;
  const std::uint64_t fetched = p.run_image(p.image(), cfg).stats.fetch_words;
  for (const std::uint64_t index : {std::uint64_t{0}, std::uint64_t{2}, fetched / 2, fetched}) {
    cfg.fault.fetch_index = index;
    render_run(p.run_image(p.image(), cfg), out);
  }
}

TEST(WorkCounters, CycleBackendCountersArePinned) {
  // The counters are deterministic, so this gates the modelled work
  // exactly and never the wall clock: a host-side speed-up must leave the
  // digest alone, while a deliberate model change (or a new workload or
  // scheme) updates it in the same commit.
  EXPECT_EQ(support::sha256_hex(render_all_runs("cycle")),
            "3cb834122ce8b671d1321247b213b103eaf7100979eb06aca43a4f00640752c2");
}

TEST(WorkCounters, FunctionalBackendCountersArePinned) {
  // The same pin for the functional backend (the one attack campaigns run
  // on): its retired-instruction clock, its once-per-(entry, prevPC) block
  // work and every architectural counter.
  EXPECT_EQ(support::sha256_hex(render_all_runs("functional")),
            "56467927f6375466b39850c363e58a9f0ea7d65ea07ab73fad704b140b59ec7f");
}

TEST(WorkCounters, FaultArmedFunctionalCountersArePinned) {
  // With a fault armed the functional backend still reuses cached blocks
  // the flip cannot reach, but counts every block entry as a fresh open
  // would: these counters (and every verdict) match a backend that
  // refetches every block while a fault is armed.
  EXPECT_EQ(support::sha256_hex(render_all_runs("functional", render_fault_armed_runs)),
            "0622ca33961a399b869ecebc8a7c39702c83fcdfcfc49d7e6a16d537779b3843");
}

TEST(WorkCounters, FaultArmedCycleCountersArePinned) {
  // The cycle backend under the same armed faults: a flip inside a block
  // the memo already opened changes its raw words, so the memo misses,
  // re-opens, re-decodes and replaces the entry, and the restored words
  // miss again on the next entry. Every verdict, reset cycle and counter
  // must match a front end that opens and decodes every entry afresh.
  EXPECT_EQ(support::sha256_hex(render_all_runs("cycle", render_fault_armed_runs)),
            "093fffc9dc8d8712a848149aa355e55f25fc3a448f68b6d0e2120da819b08ccf");
}

TEST(MaxCycles, SofiaInfiniteLoopBounded) {
  const auto keys = test_keys();
  const auto result = transform_source("main:\n j main\n", keys);
  auto cfg = sofia_config(keys);
  cfg.max_cycles = 3000;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kMaxCycles);
}

TEST(Devirt, UnlistedTargetTrapsInsteadOfJumping) {
  // The pointer value names a function outside the .targets set: the
  // devirtualized dispatch must fall into its trap (halt) rather than jump.
  const std::string src = R"(
main:
  la r4, evil
  li r1, 0
  .targets good
  jalr lr, r4
  li r1, 1             ; skipped if the dispatch trapped
  halt
good:
  addi r1, r1, 10
  ret
evil:
  li r1, 666
  ret
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  const auto run = run_image(result.image, sofia_config(keys));
  // The trap halts with r1 still 0 and no output; crucially 666 never ran.
  EXPECT_EQ(run.status, RunResult::Status::kHalted);
  EXPECT_TRUE(run.output.empty());
}

TEST(Stats, QueueAndStallCountersConsistent) {
  const auto run = test::run_sofia(R"(
main:
  li r1, 12
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  ASSERT_TRUE(run.ok());
  // Executed instructions cannot exceed elapsed cycles (single issue).
  EXPECT_LE(run.stats.insts, run.stats.cycles);
  // Every block verified exactly once.
  EXPECT_EQ(run.stats.mac_verifications, run.stats.blocks_fetched);
}

}  // namespace
}  // namespace sofia::sim
