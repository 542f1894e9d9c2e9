// Every workload must produce identical console output three ways: the C++
// golden model, the vanilla simulator, and the full SOFIA pipeline. This is
// the strongest functional statement in the repo: the whole toolchain
// (assembler -> transformer -> encrypted fetch -> MAC verify -> 7-stage
// core) is transparent to real programs.
#include <gtest/gtest.h>

#include <string>

#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace sofia::workloads {
namespace {

struct Case {
  const char* name;
  std::uint64_t seed;
  std::uint32_t size;  ///< 0 = use a reduced default
};

/// The case's test-name suffix, e.g. "fib_s0_n6".
std::string case_name(const Case& c) {
  return std::string(c.name) + "_s" + std::to_string(c.seed) + "_n" +
         std::to_string(c.size);
}

std::uint32_t test_size(const WorkloadSpec& spec, std::uint32_t requested) {
  if (requested != 0) return requested;
  // Keep unit tests quick; benches use the full sizes.
  return std::max<std::uint32_t>(8, spec.default_size / 8);
}

class WorkloadEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(WorkloadEquivalence, GoldenVanillaSofiaAgree) {
  const auto& param = GetParam();
  const WorkloadSpec& spec = workload(param.name);
  const std::uint32_t size = test_size(spec, param.size);
  const std::string src = spec.source(param.seed, size);
  const std::string expected = spec.golden(param.seed, size);

  const auto vres = test::run_vanilla(src);
  ASSERT_TRUE(vres.ok()) << spec.name << ": vanilla " << to_string(vres.status)
                         << " " << vres.fault;
  EXPECT_EQ(vres.output, expected) << spec.name << " (vanilla vs golden)";

  const auto sres = test::run_sofia(src);
  ASSERT_TRUE(sres.ok()) << spec.name << ": sofia " << to_string(sres.status)
                         << " reset=" << to_string(sres.reset.cause);
  EXPECT_EQ(sres.output, expected) << spec.name << " (sofia vs golden)";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadEquivalence,
    ::testing::Values(Case{"adpcm_encode", 1, 0}, Case{"adpcm_encode", 7, 0},
                      Case{"adpcm_decode", 1, 0}, Case{"adpcm_decode", 9, 0},
                      Case{"crc32", 1, 0}, Case{"crc32", 3, 64},
                      Case{"fir", 1, 0}, Case{"fir", 5, 0},
                      Case{"quicksort", 1, 0}, Case{"quicksort", 2, 64},
                      Case{"matmul", 1, 8}, Case{"matmul", 4, 5},
                      Case{"strsearch", 1, 0}, Case{"strsearch", 6, 0},
                      Case{"fib", 0, 12}, Case{"fib", 0, 6},
                      Case{"minivm", 1, 0}, Case{"minivm", 5, 96},
                      Case{"bitcount", 1, 0}, Case{"bitcount", 2, 32},
                      Case{"dijkstra", 1, 0}, Case{"dijkstra", 3, 12}),
    [](const auto& info) { return case_name(info.param); });

TEST(Workloads, RegistryComplete) {
  EXPECT_EQ(all_workloads().size(), 11u);
  EXPECT_NO_THROW(workload("adpcm_encode"));
  EXPECT_THROW(workload("nope"), Error);
}

TEST(Workloads, SourcesAreDeterministic) {
  const auto& spec = workload("crc32");
  EXPECT_EQ(spec.source(42, 32), spec.source(42, 32));
  EXPECT_NE(spec.source(42, 32), spec.source(43, 32));
}

TEST(Workloads, GoldenAdpcmRoundTripTracksInput) {
  // The decoder output must roughly follow the encoder input (ADPCM is
  // lossy; correlation, not equality).
  const auto in = make_waveform(3, 512);
  AdpcmState enc;
  const auto codes = adpcm_encode(in, enc);
  EXPECT_EQ(codes.size(), 256u);
  AdpcmState dec;
  const auto out = adpcm_decode(codes, 512, dec);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(enc.valprev, dec.valprev);
  EXPECT_EQ(enc.index, dec.index);
  double err = 0;
  double mag = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    err += std::abs(static_cast<double>(in[i]) - out[i]);
    mag += std::abs(static_cast<double>(in[i]));
  }
  EXPECT_LT(err / mag, 0.25) << "reconstruction error too large";
}

TEST(Workloads, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
}

TEST(Workloads, WaveformInBounds) {
  const auto w = make_waveform(11, 4096);
  for (const auto s : w) {
    EXPECT_GE(s, -32768);
    EXPECT_LE(s, 32767);
  }
}

}  // namespace
}  // namespace sofia::workloads
