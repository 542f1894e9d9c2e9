// The protection-scheme layer: registry contract, the sofia-cbcmac
// extraction goldens (hardened images and RunResults captured before
// src/scheme/ existed — the refactor must be invisible), and the
// differential tamper suite across every scheme x cipher x backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "verify/verify.hpp"

namespace {

using namespace sofia;

std::uint64_t fnv1a(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---- registry contract -----------------------------------------------------

TEST(SchemeRegistry, ListsTheBuiltInsInStableOrder) {
  const auto& reg = scheme::scheme_registry();
  ASSERT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg[0].name, "sofia-cbcmac");
  EXPECT_EQ(reg[1].name, "sponge");
  EXPECT_EQ(reg[2].name, "null");
  EXPECT_EQ(reg[3].name, "flta");
  EXPECT_EQ(reg[0].name, scheme::kDefaultScheme);
  for (const auto& entry : reg) {
    const auto& s = entry.get();
    EXPECT_EQ(s.name(), entry.name);
    EXPECT_EQ(s.describe(), entry.description);
    EXPECT_FALSE(entry.description.empty());
  }
  EXPECT_EQ(scheme::scheme_names(),
            (std::vector<std::string>{"sofia-cbcmac", "sponge", "null",
                                      "flta"}));
}

TEST(SchemeRegistry, LookupAcceptsKeysAndRejectsUnknown) {
  for (const auto& name : scheme::scheme_names()) {
    EXPECT_TRUE(scheme::is_scheme(name));
    EXPECT_EQ(scheme::get_scheme(name).name(), name);
  }
  EXPECT_FALSE(scheme::is_scheme("cbc"));
  EXPECT_FALSE(scheme::is_scheme(""));
  try {
    scheme::get_scheme("hmac");
    FAIL() << "unknown scheme must throw";
  } catch (const Error& e) {
    // The error must list the registered names (the CLI relies on it).
    EXPECT_NE(std::string(e.what()).find("sofia-cbcmac"), std::string::npos)
        << e.what();
  }
}

TEST(SchemeRegistry, Traits) {
  EXPECT_TRUE(scheme::get_scheme("sofia-cbcmac").traits().authenticated);
  EXPECT_TRUE(scheme::get_scheme("sofia-cbcmac").traits().uses_granularity);
  EXPECT_TRUE(scheme::get_scheme("sponge").traits().authenticated);
  EXPECT_FALSE(scheme::get_scheme("sponge").traits().uses_granularity);
  EXPECT_FALSE(scheme::get_scheme("null").traits().authenticated);
  EXPECT_TRUE(scheme::get_scheme("null").traits().uses_granularity);
}

// sim::SimConfig cannot name scheme::kDefaultScheme (layering); its literal
// default must stay equal to it, as must every other layer's default.
TEST(SchemeRegistry, DefaultsAgreeAcrossLayers) {
  EXPECT_EQ(sim::SimConfig{}.scheme, scheme::kDefaultScheme);
  EXPECT_EQ(pipeline::DeviceProfile{}.scheme, scheme::kDefaultScheme);
  EXPECT_EQ(xform::Options{}.scheme, scheme::kDefaultScheme);
}

TEST(SchemeRegistry, DeviceProfileParseAndFingerprint) {
  EXPECT_EQ(pipeline::DeviceProfile::parse_scheme("sponge"), "sponge");
  EXPECT_THROW(pipeline::DeviceProfile::parse_scheme("bogus"), Error);

  // The scheme axis is named unconditionally — even at the default — so
  // fingerprints from mixed-scheme sweeps can never collide.
  const auto fp = pipeline::DeviceProfile::paper_default().fingerprint();
  EXPECT_NE(fp.find("scheme=sofia-cbcmac"), std::string::npos) << fp;
  pipeline::DeviceProfile sponge = pipeline::DeviceProfile::paper_default();
  sponge.scheme = "sponge";
  EXPECT_NE(sponge.fingerprint().find("scheme=sponge"), std::string::npos);
  EXPECT_NE(sponge.to_json().find("\"scheme\":\"sponge\""), std::string::npos)
      << sponge.to_json();
}

TEST(SchemeRegistry, PipelineResolvesAndRejectsEarly) {
  pipeline::DeviceProfile p = pipeline::DeviceProfile::paper_default();
  auto good = pipeline::Pipeline::from_workload("fib", 1, 8, p);
  EXPECT_EQ(good.scheme().name(), "sofia-cbcmac");
  p.scheme = "no-such-scheme";
  auto bad = pipeline::Pipeline::from_workload("fib", 1, 8, p);
  EXPECT_THROW(bad.scheme(), Error);
  EXPECT_THROW(bad.run(), Error);
}

// ---- entry paths -----------------------------------------------------------

TEST(EntryPath, ExecutionEntryFetchesEveryWordInOrder) {
  const auto p = scheme::entry_path(0, 8);
  EXPECT_FALSE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 0u);
  EXPECT_EQ(p.first_inst, 2u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EntryPath, MuxPath1SkipsTheOtherHeaderWord) {
  const auto p = scheme::entry_path(1, 8);
  EXPECT_TRUE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 0u);
  EXPECT_EQ(p.first_inst, 3u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{0, 2, 3, 4, 5, 6, 7}));
}

TEST(EntryPath, MuxPath2StartsAtWord1) {
  const auto p = scheme::entry_path(2, 8);
  EXPECT_TRUE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 1u);
  EXPECT_EQ(p.first_inst, 3u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7}));
}

// ---- sofia-cbcmac extraction goldens ---------------------------------------

struct GoldenStats {
  int status;
  int exit_code;
  std::uint64_t cycles, insts, nops, ctr_ops, cbc_ops, mac_verifications,
      store_gate_stalls;
};

struct GoldenRow {
  const char* workload;
  int cipher;       // crypto::CipherKind
  int granularity;  // crypto::Granularity
  std::uint64_t image_hash;
  GoldenStats cycle;
  GoldenStats functional;
};

// Captured from the pre-refactor tree (seed=1, size=16, example keys),
// before block sealing/opening moved into src/scheme/. Byte-identical
// images and identical RunResults on both backends are the refactor's
// central acceptance criterion.
const GoldenRow kGoldens[] = {
    {"fib", 0, 1, 0x27c31311d86f91ecull,
     {0, 0, 150151ull, 78237ull, 41517ull, 57480ull, 43110ull, 14370ull, 6384ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 48ull, 36ull, 12ull, 0ull}},
    {"fib", 0, 0, 0x2b87bf806aed76e7ull,
     {0, 0, 249087ull, 78237ull, 41517ull, 119753ull, 47901ull, 15967ull, 19145ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 90ull, 36ull, 12ull, 0ull}},
    {"fib", 1, 1, 0xeb9618a1a6ba1610ull,
     {0, 0, 150151ull, 78237ull, 41517ull, 57480ull, 43110ull, 14370ull, 6384ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 48ull, 36ull, 12ull, 0ull}},
    {"fib", 1, 0, 0x76f6b60a15e4fb5full,
     {0, 0, 249087ull, 78237ull, 41517ull, 119753ull, 47901ull, 15967ull, 19145ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 90ull, 36ull, 12ull, 0ull}},
    {"crc32", 0, 1, 0x29373121d49e1955ull,
     {0, 0, 3825ull, 1882ull, 843ull, 1436ull, 1077ull, 359ull, 0ull},
     {0, 0, 1882ull, 1882ull, 843ull, 40ull, 30ull, 10ull, 0ull}},
    {"crc32", 0, 0, 0xe187c9d04d585516ull,
     {0, 0, 6123ull, 1882ull, 843ull, 4072ull, 1629ull, 543ull, 2ull},
     {0, 0, 1882ull, 1882ull, 843ull, 74ull, 30ull, 10ull, 0ull}},
    {"crc32", 1, 1, 0xc97e7735743b7298ull,
     {0, 0, 3825ull, 1882ull, 843ull, 1436ull, 1077ull, 359ull, 0ull},
     {0, 0, 1882ull, 1882ull, 843ull, 40ull, 30ull, 10ull, 0ull}},
    {"crc32", 1, 0, 0x6f3a3bca48490c22ull,
     {0, 0, 6123ull, 1882ull, 843ull, 4072ull, 1629ull, 543ull, 2ull},
     {0, 0, 1882ull, 1882ull, 843ull, 74ull, 30ull, 10ull, 0ull}},
    {"bitcount", 0, 1, 0x8926caee552dd941ull,
     {0, 0, 5373ull, 3183ull, 1753ull, 2320ull, 1740ull, 580ull, 1ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 32ull, 24ull, 8ull, 0ull}},
    {"bitcount", 0, 0, 0x5c2cbf5d78154259ull,
     {0, 0, 9379ull, 3183ull, 1753ull, 4583ull, 1830ull, 610ull, 6ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 60ull, 24ull, 8ull, 0ull}},
    {"bitcount", 1, 1, 0x5f4dacbb8ad45d5aull,
     {0, 0, 5373ull, 3183ull, 1753ull, 2320ull, 1740ull, 580ull, 1ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 32ull, 24ull, 8ull, 0ull}},
    {"bitcount", 1, 0, 0x5f1bc640be0173f0ull,
     {0, 0, 9379ull, 3183ull, 1753ull, 4583ull, 1830ull, 610ull, 6ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 60ull, 24ull, 8ull, 0ull}},
    {"matmul", 0, 1, 0x188bcd89e04fe59bull,
     {0, 0, 98657ull, 51132ull, 14181ull, 52356ull, 39267ull, 13089ull, 2ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 52ull, 39ull, 13ull, 0ull}},
    {"matmul", 0, 0, 0x1bbdc962de8e094cull,
     {0, 0, 156197ull, 51132ull, 14181ull, 102384ull, 40032ull, 13344ull, 6ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 98ull, 39ull, 13ull, 0ull}},
    {"matmul", 1, 1, 0x8d170a7f9df57cafull,
     {0, 0, 98657ull, 51132ull, 14181ull, 52356ull, 39267ull, 13089ull, 2ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 52ull, 39ull, 13ull, 0ull}},
    {"matmul", 1, 0, 0xbdcc3eadaa050962ull,
     {0, 0, 156197ull, 51132ull, 14181ull, 102384ull, 40032ull, 13344ull, 6ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 98ull, 39ull, 13ull, 0ull}},
};

void expect_stats(const GoldenStats& g, const sim::RunResult& r,
                  const std::string& label) {
  EXPECT_EQ(static_cast<int>(r.status), g.status) << label;
  EXPECT_EQ(r.exit_code, g.exit_code) << label;
  EXPECT_EQ(r.stats.cycles, g.cycles) << label;
  EXPECT_EQ(r.stats.insts, g.insts) << label;
  EXPECT_EQ(r.stats.nops, g.nops) << label;
  EXPECT_EQ(r.stats.ctr_ops, g.ctr_ops) << label;
  EXPECT_EQ(r.stats.cbc_ops, g.cbc_ops) << label;
  EXPECT_EQ(r.stats.mac_verifications, g.mac_verifications) << label;
  EXPECT_EQ(r.stats.store_gate_stalls, g.store_gate_stalls) << label;
}

TEST(CbcmacGoldens, ImagesAndRunsMatchThePreRefactorCapture) {
  for (const auto& row : kGoldens) {
    pipeline::DeviceProfile profile = pipeline::DeviceProfile::example(
        static_cast<crypto::CipherKind>(row.cipher));
    profile.granularity = static_cast<crypto::Granularity>(row.granularity);
    const std::string label = std::string(row.workload) + " cipher=" +
                              std::to_string(row.cipher) + " gran=" +
                              std::to_string(row.granularity);

    auto p = pipeline::Pipeline::from_workload(row.workload, 1, 16, profile);
    EXPECT_EQ(fnv1a(p.hardened().image.text), row.image_hash) << label;
    expect_stats(row.cycle, p.run(), label + " backend=cycle");

    pipeline::DeviceProfile fp = profile;
    fp.backend = "functional";
    auto pf = pipeline::Pipeline::from_workload(row.workload, 1, 16, fp);
    expect_stats(row.functional, pf.run(), label + " backend=functional");
  }
}

// ---- cross-scheme behavior -------------------------------------------------

// sponge derives all keystream from the chained state, so the CTR
// granularity axis must not change the sealed bytes; sofia-cbcmac's must.
TEST(SchemeSealing, GranularityTraitIsHonest) {
  for (const auto& name : scheme::scheme_names()) {
    pipeline::DeviceProfile a = pipeline::DeviceProfile::paper_default();
    a.scheme = name;
    a.granularity = crypto::Granularity::kPerPair;
    pipeline::DeviceProfile b = a;
    b.granularity = crypto::Granularity::kPerWord;
    auto pa = pipeline::Pipeline::from_workload("fib", 1, 8, a);
    auto pb = pipeline::Pipeline::from_workload("fib", 1, 8, b);
    const bool same = pa.hardened().image.text == pb.hardened().image.text;
    EXPECT_EQ(same, !scheme::get_scheme(name).traits().uses_granularity)
        << name;
  }
}

// A sponge device and a CTR-layout image (or vice versa) must fail like a
// key mismatch: the keystream constructions are incompatible, so the body
// garbles and the verdict fires on the first block.
TEST(SchemeSealing, SpongeAndCtrLayoutsDoNotInteroperate) {
  pipeline::DeviceProfile cbc = pipeline::DeviceProfile::paper_default();
  pipeline::DeviceProfile spg = cbc;
  spg.scheme = "sponge";
  auto sealed_cbc = pipeline::Pipeline::from_workload("fib", 1, 8, cbc);
  auto sealed_spg = pipeline::Pipeline::from_workload("fib", 1, 8, spg);

  auto on_sponge = pipeline::Pipeline::from_image(sealed_cbc.hardened().image, spg);
  ASSERT_EQ(on_sponge.run().status, sim::RunResult::Status::kReset);
  EXPECT_EQ(on_sponge.run().reset.cause, sim::ResetCause::kStateCorruption);

  auto on_cbc = pipeline::Pipeline::from_image(sealed_spg.hardened().image, cbc);
  ASSERT_EQ(on_cbc.run().status, sim::RunResult::Status::kReset);
  EXPECT_EQ(on_cbc.run().reset.cause, sim::ResetCause::kMacMismatch);
}

// Pinned on purpose: sofia-cbcmac and null share the ctr_common block
// layout and a null device never reads the header, so a sofia-cbcmac image
// runs cleanly on a null device — integrity stripped, confidentiality kept.
TEST(SchemeSealing, NullDeviceRunsCbcmacImagesWithoutIntegrity) {
  pipeline::DeviceProfile cbc = pipeline::DeviceProfile::paper_default();
  auto sealed = pipeline::Pipeline::from_workload("fib", 1, 8, cbc);
  pipeline::DeviceProfile dev = cbc;
  dev.scheme = "null";
  auto runner = pipeline::Pipeline::from_image(sealed.hardened().image, dev);
  const auto& r = runner.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.stats.mac_verifications, 0u);
}

// ---- the differential tamper suite -----------------------------------------

struct TamperCase {
  const char* scheme;
  sim::ResetCause cause;  // the scheme's verification verdict
  bool authenticated;
};

const TamperCase kTamperCases[] = {
    {"sofia-cbcmac", sim::ResetCause::kMacMismatch, true},
    {"sponge", sim::ResetCause::kStateCorruption, true},
    {"null", sim::ResetCause::kNone, false},
    // flta layers the forward-edge label gate on the CBC-MAC substrate, so
    // generic ciphertext tampering still verdicts as a MAC mismatch.
    {"flta", sim::ResetCause::kMacMismatch, true},
};

// Print a case by its scheme name. Without this GoogleTest prints the raw
// bytes — the scheme pointer included — so the test names CTest discovers
// would change with every build and every ASLR layout.
void PrintTo(const TamperCase& c, std::ostream* os) { *os << c.scheme; }

bool verification_cause(sim::ResetCause c) {
  return c == sim::ResetCause::kMacMismatch ||
         c == sim::ResetCause::kStateCorruption;
}

/// Block word index of the entry block's first word.
std::uint32_t entry_block_word(const assembler::LoadImage& img,
                               std::uint32_t words_per_block) {
  const std::uint32_t w = (img.entry - img.text_base) / 4;
  return (w / words_per_block) * words_per_block;
}

class TamperSuite : public ::testing::TestWithParam<TamperCase> {
 protected:
  struct Combo {
    pipeline::Pipeline pipeline;
    std::string label;
  };

  std::vector<Combo> combos() {
    std::vector<Combo> out;
    for (const auto ck : {crypto::CipherKind::kRectangle80,
                          crypto::CipherKind::kSpeck64_128}) {
      for (const char* be : {"cycle", "functional"}) {
        pipeline::DeviceProfile p = pipeline::DeviceProfile::example(ck);
        p.scheme = GetParam().scheme;
        p.backend = be;
        out.push_back({pipeline::Pipeline::from_workload("fib", 1, 16, p),
                       std::string(GetParam().scheme) + "/" +
                           std::string(crypto::to_string(ck)) + "/" + be});
      }
    }
    return out;
  }
};

// Flipping one ciphertext bit in the instruction body must reset every
// authenticated scheme with exactly its verdict; "null" must never raise a
// verification cause (decode-side rules may still fire on the garbage).
TEST_P(TamperSuite, TamperedTextWordIsCaught) {
  for (auto& c : combos()) {
    const auto& clean = c.pipeline.run();
    ASSERT_TRUE(clean.ok()) << c.label;
    EXPECT_EQ(clean.exit_code, 0) << c.label;

    auto img = c.pipeline.hardened().image;
    img.text[img.text.size() / 2] ^= 0x10u;
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// Forging the stored tag (the header words) garbles nothing the decoder
// ever sees, so only verification can catch it: authenticated schemes must
// reset with their verdict, while "null" — whose header carries no secret —
// must run to a clean exit.
TEST_P(TamperSuite, ForgedHeaderIsCaughtOnlyByVerification) {
  for (auto& c : combos()) {
    auto img = c.pipeline.hardened().image;
    const std::uint32_t base = entry_block_word(
        img, c.pipeline.profile().policy.words_per_block);
    img.text[base] ^= 0x4000u;
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
      EXPECT_EQ(r.reset.pc, (base * 4) + img.text_base) << c.label;
    } else {
      EXPECT_TRUE(r.ok()) << c.label << " status="
                          << static_cast<int>(r.status);
      EXPECT_EQ(r.exit_code, 0) << c.label;
    }
  }
}

// Splicing another block's ciphertext over the entry block (a relocation /
// block-skip attack) must garble under the address-bound counters and trip
// verification; "null" decrypts garbage but must not claim verification.
TEST_P(TamperSuite, RelocatedBlockIsCaught) {
  for (auto& c : combos()) {
    auto img = c.pipeline.hardened().image;
    const std::uint32_t b = c.pipeline.profile().policy.words_per_block;
    const std::uint32_t base = entry_block_word(img, b);
    const std::uint32_t donor = (base == 0) ? b : 0;
    ASSERT_GE(img.text.size(), donor + b);
    for (std::uint32_t j = 0; j < b; ++j)
      img.text[base + j] = img.text[donor + j];
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(r.ok()) << c.label;
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// A transient fault on the fetch path (one flipped bus bit) is the same
// event as tampered ciphertext by the time the scheme sees it.
TEST_P(TamperSuite, InjectedFetchFaultIsCaught) {
  for (auto& c : combos()) {
    sim::SimConfig config = c.pipeline.sim_config();
    config.fault.enabled = true;
    config.fault.fetch_index = 100;
    config.fault.bit = 7;
    const auto r = c.pipeline.run_image(c.pipeline.hardened().image, config);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// The stats must say what the scheme does: an unauthenticated run counts no
// verifications and no MAC-class cipher work; authenticated runs count both.
TEST_P(TamperSuite, StatsReflectTheSchemeContract) {
  for (auto& c : combos()) {
    const auto& r = c.pipeline.run();
    ASSERT_TRUE(r.ok()) << c.label;
    if (GetParam().authenticated) {
      EXPECT_GT(r.stats.mac_verifications, 0u) << c.label;
    } else {
      EXPECT_EQ(r.stats.mac_verifications, 0u) << c.label;
      EXPECT_EQ(r.stats.cbc_ops, 0u) << c.label;
      EXPECT_EQ(r.stats.store_gate_stalls, 0u) << c.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TamperSuite,
                         ::testing::ValuesIn(kTamperCases),
                         [](const auto& info) {
                           std::string n = info.param.scheme;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// ---- forward-edge retargeting ----------------------------------------------

// Two dispatch sites with disjoint target sets. The data table is the
// attack surface: SOFIA seals only the text, so a dispatch slot is one
// unauthenticated store away from aiming the jump elsewhere.
constexpr char kDispatchVictim[] = R"(
main:
  li r1, 0
  la r4, table
  lw r5, 0(r4)
  .targets f1, f2
  jr r5
mid:
  la r4, table2
  lw r5, 0(r4)
  .targets g1, g2
  jr r5
done:
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f1:
  addi r1, r1, 1
  j mid
f2:
  addi r1, r1, 2
  j mid
g1:
  addi r1, r1, 4
  j done
g2:
  addi r1, r1, 8
  j done
.data
table: .word f1, f2
table2: .word g1, g2
)";

std::uint32_t data_word(const assembler::LoadImage& img, std::uint32_t off) {
  std::uint32_t v = 0;
  for (std::uint32_t j = 0; j < 4; ++j)
    v |= static_cast<std::uint32_t>(img.data[off + j]) << (8 * j);
  return v;
}

void set_data_word(assembler::LoadImage& img, std::uint32_t off,
                   std::uint32_t v) {
  for (std::uint32_t j = 0; j < 4; ++j)
    img.data[off + j] = static_cast<std::uint8_t>(v >> (8 * j));
}

// Redirecting a dispatch slot across target sets is exactly the attack the
// forward-edge scheme exists for: flta must verdict it as a target-set
// violation, while the backward-edge-only scheme can at best watch the
// devirtualized compare chain bend into its trap — no verification cause,
// just silently wrong behavior.
TEST(ForwardEdge, RetargetedDispatchSlotIsOnlyAttributedByFlta) {
  const auto make = [](const char* scheme_name) {
    auto p = pipeline::DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
    p.scheme = scheme_name;
    return pipeline::Pipeline::from_source(kDispatchVictim, p, "dispatch");
  };
  // table[0] sits at data offset 0, table2[0] at offset 8; the redirect
  // aims the first dispatch at the second set's first target.
  {
    auto session = make("flta");
    ASSERT_TRUE(session.run().ok());
    auto img = session.hardened().image;
    set_data_word(img, 0, data_word(img, 8));
    const auto r = session.run_image(img);
    ASSERT_EQ(r.status, sim::RunResult::Status::kReset);
    EXPECT_EQ(r.reset.cause, sim::ResetCause::kTargetSetViolation);
  }
  {
    auto session = make("sofia-cbcmac");
    const auto& clean = session.run();
    ASSERT_TRUE(clean.ok());
    auto img = session.hardened().image;
    set_data_word(img, 0, data_word(img, 8));
    const auto r = session.run_image(img);
    EXPECT_NE(r.status, sim::RunResult::Status::kReset)
        << "the backward-edge scheme has no forward-edge verdict";
    EXPECT_NE(r.output, clean.output) << "the bend must be live, not dead code";
  }
}

// The nearest text-level realization of the same redirect — splicing the
// other target's sealed block over the intended one — is caught by both
// MAC substrates, but sofia-cbcmac classifies it merely as a relocation;
// only the forward-edge scheme names the violated edge at runtime.
TEST(ForwardEdge, CbcmacSeesRetargetingOnlyAsARelocation) {
  auto p = pipeline::DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
  p.scheme = "sofia-cbcmac";
  auto session = pipeline::Pipeline::from_source(kDispatchVictim, p,
                                                 "dispatch");
  ASSERT_TRUE(session.run().ok());
  auto img = session.hardened().image;
  const std::uint32_t b = session.profile().policy.words_per_block;
  // Under the non-gating scheme the table holds placed block addresses.
  const std::uint32_t f1_block = (data_word(img, 0) - img.text_base) / 4 / b;
  const std::uint32_t g1_block = (data_word(img, 8) - img.text_base) / 4 / b;
  ASSERT_NE(f1_block, g1_block);
  for (std::uint32_t j = 0; j < b; ++j)
    img.text[f1_block * b + j] = img.text[g1_block * b + j];
  const auto run = session.run_image(img);
  ASSERT_EQ(run.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch);
  const auto rules = verify::error_rules(session.lint_image(img));
  EXPECT_NE(std::find(rules.begin(), rules.end(),
                      verify::Rule::kRelocatedBlock),
            rules.end())
      << "static attribution should say 'relocated block', nothing about "
         "the forward edge";
}

}  // namespace
