// Cross-validation of the execution backends (src/sim/backend.hpp): the
// registry contract, and the load-bearing property that the "functional"
// backend is architecturally indistinguishable from the cycle-accurate
// machine — same exit state, same console output, same instruction-level
// counters on clean runs, and the same reset-on-tamper behavior — for
// every registered workload under every cipher.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "random_program.hpp"
#include "sim/backend.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sofia {
namespace {

using pipeline::DeviceProfile;
using pipeline::Pipeline;

const char* kSource = R"(
main:
  li r1, 5
  li r2, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bnez r1, loop
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
)";

DeviceProfile functional_profile(DeviceProfile profile = DeviceProfile::paper_default()) {
  profile.backend = "functional";
  return profile;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ListsCycleFirstThenFunctional) {
  const auto names = sim::backend_names();
  // "cycle" is the default every DeviceProfile starts with.
  EXPECT_EQ(names, (std::vector<std::string>{"cycle", "functional"}));
  EXPECT_EQ(sim::kDefaultBackend, "cycle");
  for (const auto& name : names) EXPECT_TRUE(sim::is_backend(name)) << name;
  EXPECT_FALSE(sim::is_backend("warp"));
}

TEST(BackendRegistry, MakeBackendRoundTripsAndRejectsUnknown) {
  for (const auto& entry : sim::backend_registry()) {
    const auto backend = sim::make_backend(entry.name);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), entry.name);
    // The registry row and the instance share one description string.
    EXPECT_EQ(backend->describe(), entry.description);
  }
  try {
    sim::make_backend("warp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("functional"), std::string::npos) << what;
  }
}

TEST(BackendRegistry, CapabilitiesDistinguishTimingFidelity) {
  const auto cycle = sim::make_backend("cycle");
  EXPECT_TRUE(cycle->capabilities().cycle_accurate);
  EXPECT_TRUE(cycle->capabilities().models_microarchitecture);
  const auto functional = sim::make_backend("functional");
  EXPECT_FALSE(functional->capabilities().cycle_accurate);
  EXPECT_FALSE(functional->capabilities().models_microarchitecture);
}

TEST(BackendRegistry, DeviceProfileParsesAndFingerprintsTheBackend) {
  EXPECT_EQ(DeviceProfile::parse_backend("functional"), "functional");
  // Exact-match grammar, identical to the CLI --backend choice flags.
  EXPECT_THROW(DeviceProfile::parse_backend("FUNCTIONAL"), Error);
  EXPECT_THROW(DeviceProfile::parse_backend("warp"), Error);
  const auto p = functional_profile();
  EXPECT_NE(p.fingerprint().find("backend=functional"), std::string::npos)
      << p.fingerprint();
  EXPECT_NE(p.to_json().find("\"backend\":\"functional\""), std::string::npos)
      << p.to_json();
}

TEST(BackendRegistry, PipelineRejectsUnknownBackendWithContext) {
  auto profile = DeviceProfile::paper_default();
  profile.backend = "warp";
  auto p = Pipeline::from_source(kSource, profile, "bad-backend");
  try {
    p.run();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline[bad-backend]/backend:"), std::string::npos)
        << what;
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Cross-validation: functional == cycle, architecturally
// ---------------------------------------------------------------------------

void expect_same_architectural_outcome(const sim::RunResult& cycle,
                                       const sim::RunResult& functional,
                                       const std::string& label) {
  ASSERT_EQ(cycle.status, functional.status) << label;
  EXPECT_EQ(cycle.exit_code, functional.exit_code) << label;
  EXPECT_EQ(cycle.output, functional.output) << label;
  // The committed instruction stream is identical, so the architectural
  // counters must agree exactly — only timing-derived numbers may differ.
  EXPECT_EQ(cycle.stats.insts, functional.stats.insts) << label;
  EXPECT_EQ(cycle.stats.nops, functional.stats.nops) << label;
  EXPECT_EQ(cycle.stats.loads, functional.stats.loads) << label;
  EXPECT_EQ(cycle.stats.stores, functional.stats.stores) << label;
  EXPECT_EQ(cycle.stats.branches, functional.stats.branches) << label;
  EXPECT_EQ(cycle.stats.taken, functional.stats.taken) << label;
}

TEST(BackendCrossValidation, EveryWorkloadEveryCipherAgrees) {
  // The acceptance matrix: all registered workloads x both ciphers must
  // produce identical architectural results through Pipeline on both
  // backends (sizes scaled down to keep the suite fast).
  for (const auto& spec : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, spec.default_size / 16);
    for (const auto kind :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      const std::string label =
          spec.name + " / " + std::string(crypto::to_string(kind));
      auto cyc = Pipeline::from_workload(spec, 1, size,
                                         DeviceProfile::example(kind));
      auto fn = Pipeline::from_workload(
          spec, 1, size, functional_profile(DeviceProfile::example(kind)));
      ASSERT_TRUE(cyc.run().ok()) << label;
      expect_same_architectural_outcome(cyc.run(), fn.run(), label);
      // The golden model agrees too (measure() throws on any mismatch).
      EXPECT_NO_THROW(fn.measure()) << label;
    }
  }
}

TEST(BackendCrossValidation, VanillaRunsAgree) {
  for (const char* name : {"fib", "crc32"}) {
    const auto& spec = workloads::workload(name);
    const std::uint32_t size = std::max(4u, spec.default_size / 16);
    auto cyc = Pipeline::from_workload(spec, 1, size);
    auto fn = Pipeline::from_workload(spec, 1, size, functional_profile());
    expect_same_architectural_outcome(cyc.run_vanilla(), fn.run_vanilla(),
                                      name);
  }
}

TEST(BackendCrossValidation, PerWordGranularityAgrees) {
  auto profile = DeviceProfile::paper_default();
  profile.granularity = crypto::Granularity::kPerWord;
  auto cyc = Pipeline::from_source(kSource, profile);
  auto fn = Pipeline::from_source(kSource, functional_profile(profile));
  ASSERT_TRUE(cyc.run().ok());
  expect_same_architectural_outcome(cyc.run(), fn.run(), "per-word");
}

TEST(BackendCrossValidation, SmallUnrestrictedPolicyAgrees) {
  auto profile = DeviceProfile::paper_default();
  profile.policy = xform::BlockPolicy::small_unrestricted();
  auto cyc = Pipeline::from_source(kSource, profile);
  auto fn = Pipeline::from_source(kSource, functional_profile(profile));
  ASSERT_TRUE(cyc.run().ok());
  expect_same_architectural_outcome(cyc.run(), fn.run(), "small-policy");
}

TEST(BackendCrossValidation, RandomProgramsAgree) {
  // Property-based differential check: random (terminating) SR32 programs
  // with loops, calls, forward branches and memory traffic must be
  // indistinguishable across backends, on both the SOFIA and vanilla core.
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string source = test::random_program(rng);
    const std::string label = "trial " + std::to_string(trial);
    auto cyc = Pipeline::from_source(source);
    auto fn = Pipeline::from_source(source, functional_profile());
    ASSERT_TRUE(cyc.run().ok()) << label;
    expect_same_architectural_outcome(cyc.run(), fn.run(), label);
    expect_same_architectural_outcome(cyc.run_vanilla(), fn.run_vanilla(),
                                      label + " (vanilla)");
  }
}

// ---------------------------------------------------------------------------
// Integrity semantics: tamper and fault still reset
// ---------------------------------------------------------------------------

TEST(BackendCrossValidation, TamperedTextResetsIdenticallyUnderBothBackends) {
  auto builder = Pipeline::from_source(kSource);
  auto tampered = builder.image();
  tampered.text.at(3) ^= 1u;  // inside the entry block: reached by both
  const auto cyc = builder.run_image(tampered);
  auto fn_session = Pipeline::from_image(tampered, functional_profile());
  const auto& fn = fn_session.run();
  ASSERT_EQ(cyc.status, sim::RunResult::Status::kReset);
  ASSERT_EQ(fn.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(cyc.reset.cause, fn.reset.cause);
  EXPECT_EQ(cyc.reset.cause, sim::ResetCause::kMacMismatch);
  EXPECT_EQ(cyc.reset.pc, fn.reset.pc);
}

TEST(BackendCrossValidation, SelfModifyingStoreToTextResetsUnderBothBackends) {
  // A program that tampers its own ciphertext at run time and then enters
  // the modified block. Both backends keep what they opened under the
  // (entry, prevPC) pair, so both are policed here. The cycle machine
  // fetches every word live from memory and reuses an earlier open only
  // when the fetched words match it, so the flipped word must miss its
  // opened-block memo and reset on the bad MAC. The functional backend must
  // invalidate its decoded-block cache (and the successor links between
  // cached blocks) on the store-to-text and reset identically — and must
  // keep executing the in-flight block safely until then (this test runs
  // under the ASan CI job precisely to police that invalidation path).
  // Pass 0 calls victim cleanly (both backends keep the verified block
  // under this exact (entry, prevPC) pair), then flips one ciphertext bit
  // inside victim and loops to the very same call site. A stale hit would
  // sail through to the halt at `missed`; a correct re-open resets on the
  // bad MAC.
  // Each image runs unarmed and with a fetch fault armed past the end of
  // the run (it never fires, but the functional backend then counts every
  // reuse as a refetch). The second image holds the same sealed code in
  // its data section and no text, so the store misses the text section
  // but still hits fetched code.
  const char* source = R"(
main:
  li r5, 0
  la r10, victim
loop:
  call victim
  bnez r5, missed
  li r5, 1
  lw r11, 0(r10)
  xori r11, r11, 1
  sw r11, 0(r10)
  j loop
missed:
  halt
victim:
  ret
)";
  auto cyc_session = Pipeline::from_source(source);
  auto fn_session = Pipeline::from_source(source, functional_profile());
  const auto& in_text = cyc_session.image();
  ASSERT_TRUE(in_text.data.empty());
  auto in_data = in_text;
  in_data.data_base = in_text.text_base;
  for (const std::uint32_t word : in_text.text)
    for (unsigned byte = 0; byte < 4; ++byte)
      in_data.data.push_back(static_cast<std::uint8_t>(word >> (8 * byte)));
  in_data.text.clear();

  for (const bool code_in_data : {false, true}) {
    for (const bool armed : {false, true}) {
      SCOPED_TRACE(std::string(code_in_data ? "data" : "text") +
                   (armed ? ", armed" : ", unarmed"));
      const auto& image = code_in_data ? in_data : in_text;
      sim::SimConfig config;
      config.fault.enabled = armed;
      config.fault.fetch_index = 1ull << 40;
      const auto cyc = cyc_session.run_image(image, config);
      const auto fn = fn_session.run_image(image, config);
      ASSERT_EQ(cyc.status, sim::RunResult::Status::kReset);
      EXPECT_EQ(cyc.reset.cause, sim::ResetCause::kMacMismatch);
      EXPECT_EQ(fn.status, sim::RunResult::Status::kReset);
      EXPECT_EQ(fn.reset.cause, cyc.reset.cause);
      EXPECT_EQ(fn.reset.pc, cyc.reset.pc);
      // Every instruction before the tampering transfer still committed.
      EXPECT_EQ(fn.stats.insts, cyc.stats.insts);
      EXPECT_EQ(fn.stats.stores, cyc.stats.stores);
    }
  }
}

TEST(BackendCrossValidation, KeyMismatchResetsUnderBothBackends) {
  auto speck = Pipeline::from_source(
      kSource, DeviceProfile::example(crypto::CipherKind::kSpeck64_128));
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    auto wrong_device = Pipeline::from_image(speck.image(), profile);
    EXPECT_EQ(wrong_device.run().status, sim::RunResult::Status::kReset)
        << backend;
    EXPECT_EQ(wrong_device.run().reset.cause, sim::ResetCause::kMacMismatch)
        << backend;
  }
}

TEST(BackendCrossValidation, FetchFaultInjectionResetsUnderBothBackends) {
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    auto p = Pipeline::from_source(kSource, profile);
    sim::SimConfig config;
    config.fault.enabled = true;
    config.fault.fetch_index = 2;  // lands in the entry block on any backend
    config.fault.bit = 7;
    const auto run = p.run_image(p.image(), config);
    EXPECT_EQ(run.status, sim::RunResult::Status::kReset) << backend;
    EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch) << backend;
  }
}

// ---------------------------------------------------------------------------
// Functional-backend contract details
// ---------------------------------------------------------------------------

TEST(FunctionalBackend, CyclesAreTheInstructionCount) {
  auto p = Pipeline::from_source(kSource, functional_profile());
  const auto& run = p.run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.stats.cycles, run.stats.insts);
  // No micro-architecture is modelled.
  EXPECT_EQ(run.stats.icache_hits, 0u);
  EXPECT_EQ(run.stats.icache_misses, 0u);
}

TEST(FunctionalBackend, BlockCacheVerifiesEachEntryOnce) {
  // The loop body re-executes but decrypts and MAC-verifies only once per
  // distinct (entry, prevPC) pair — the source of the backend's speedup.
  auto p = Pipeline::from_source(kSource, functional_profile());
  const auto& fn = p.run();
  auto c = Pipeline::from_source(kSource);
  const auto& cyc = c.run();
  ASSERT_TRUE(fn.ok());
  EXPECT_LT(fn.stats.mac_verifications, cyc.stats.mac_verifications);
  EXPECT_GT(fn.stats.mac_verifications, 0u);
  EXPECT_LT(fn.stats.ctr_ops, cyc.stats.ctr_ops);
}

TEST(FunctionalBackend, MaxCyclesBoundsTheInstructionCount) {
  auto p = Pipeline::from_source(R"(
main:
  li r1, 1
loop:
  bnez r1, loop
  halt
)", functional_profile());
  sim::SimConfig config;
  config.max_cycles = 10'000;
  const auto run = p.run_image(p.image(), config);
  EXPECT_EQ(run.status, sim::RunResult::Status::kMaxCycles);
  EXPECT_LE(run.stats.insts, 10'000u);
}

TEST(FunctionalBackend, TraceRecordsTheArchitecturalStream) {
  auto p = Pipeline::from_source(kSource, functional_profile());
  sim::SimConfig config;
  config.collect_trace = true;
  const auto run = p.run_image(p.image(), config);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run.trace.empty());
  EXPECT_EQ(run.trace.size(), run.stats.insts);
}

}  // namespace
}  // namespace sofia
