// Tests for the parallel experiment-sweep driver (src/driver/sweep.hpp)
// and the JSON writer it emits results through. The load-bearing property
// is determinism: the same SweepSpec must produce byte-identical JSON for
// any thread count.
#include <gtest/gtest.h>

#include <cmath>

#include "driver/sweep.hpp"
#include "support/json.hpp"

namespace sofia {
namespace {

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(Json, CompactObjectAndArray) {
  json::Writer w(-1);
  w.begin_object();
  w.member("name", "sweep");
  w.member("count", 3);
  w.key("items").begin_array().value(1).value(2).end_array();
  w.member("ok", true);
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"sweep","count":3,"items":[1,2],"ok":true,"none":null})");
}

TEST(Json, PrettyPrintIndents) {
  json::Writer w(2);
  w.begin_object();
  w.member("a", 1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, EmptyContainersStayOnOneLine) {
  json::Writer w(2);
  w.begin_object();
  w.key("jobs").begin_array().end_array();
  w.key("meta").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"jobs\": [],\n  \"meta\": {}\n}");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
  json::Writer w(-1);
  w.begin_array().value("per-pair \"alt\"").end_array();
  EXPECT_EQ(w.str(), R"(["per-pair \"alt\""])");
}

TEST(Json, NumberFormatting) {
  json::Writer w(-1);
  w.begin_array();
  w.value(static_cast<std::int64_t>(-7));
  w.value(static_cast<std::uint64_t>(18446744073709551615ull));
  w.value(2.5);
  w.value(std::nan(""));  // NaN -> null (JSON has no non-finite numbers)
  w.end_array();
  EXPECT_EQ(w.str(), "[-7,18446744073709551615,2.5,null]");
}

// ---------------------------------------------------------------------------
// Matrix expansion
// ---------------------------------------------------------------------------

TEST(Sweep, ExpansionIsWorkloadMajorWithIndexSeeds) {
  driver::SweepSpec spec;
  spec.name = "t";
  spec.workloads = {"fib", "crc32"};
  spec.configs = {driver::paper_default_config(), driver::paper_default_config()};
  spec.configs[1].name = "second";
  spec.base_seed = 100;
  spec.vary_seed = true;
  const auto jobs = driver::expand_jobs(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].workload, "fib");
  EXPECT_EQ(jobs[1].workload, "fib");
  EXPECT_EQ(jobs[1].config.name, "second");
  EXPECT_EQ(jobs[2].workload, "crc32");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].seed, 100 + i);  // pure function of the job index
  }
}

TEST(Sweep, FixedSeedModeUsesBaseSeedEverywhere) {
  driver::SweepSpec spec;
  spec.workloads = {"fib", "crc32"};
  spec.configs = {driver::paper_default_config()};
  spec.base_seed = 7;
  spec.vary_seed = false;
  for (const auto& job : driver::expand_jobs(spec)) EXPECT_EQ(job.seed, 7u);
}

TEST(Sweep, EmptyWorkloadListMeansAllRegistered) {
  driver::SweepSpec spec;
  spec.configs = {driver::paper_default_config()};
  EXPECT_EQ(driver::expand_jobs(spec).size(),
            workloads::all_workloads().size());
}

TEST(Sweep, UnknownWorkloadThrows) {
  driver::SweepSpec spec;
  spec.workloads = {"no_such_workload"};
  spec.configs = {driver::paper_default_config()};
  EXPECT_THROW(driver::expand_jobs(spec), Error);
}

TEST(Sweep, UnknownMatrixThrows) {
  EXPECT_THROW(driver::matrix("no-such-matrix"), Error);
}

TEST(Sweep, BuiltInMatricesExpand) {
  for (const auto& name : driver::matrix_names()) {
    const auto spec = driver::matrix(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(driver::expand_jobs(spec).empty()) << name;
  }
}

TEST(Sweep, FingerprintNamesEverySweptAxis) {
  auto config = driver::paper_default_config();
  config.opts.config.cipher.alternate = false;
  config.unroll_cycles = 7;
  const auto fp = config.fingerprint();
  EXPECT_NE(fp.find("gran=per-pair"), std::string::npos) << fp;
  EXPECT_NE(fp.find("alt=0"), std::string::npos) << fp;
  EXPECT_NE(fp.find("policy=8/4"), std::string::npos) << fp;
  EXPECT_NE(fp.find("cipher=RECTANGLE-80"), std::string::npos) << fp;
  EXPECT_NE(fp.find("icache=4096x32"), std::string::npos) << fp;
  EXPECT_NE(fp.find("unroll=7"), std::string::npos) << fp;
  // The scheme axis is named unconditionally, even at its default.
  EXPECT_NE(fp.find("scheme=sofia-cbcmac"), std::string::npos) << fp;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

driver::SweepSpec small_spec() {
  driver::SweepSpec spec;
  spec.name = "unit";
  spec.workloads = {"fib", "crc32", "bitcount"};
  spec.size_divisor = 16;
  spec.vary_seed = true;
  auto demand = driver::paper_default_config();
  demand.name = "demand-driven";
  demand.opts.config.cipher.alternate = false;
  spec.configs = {driver::paper_default_config(), demand};
  return spec;
}

TEST(Sweep, RunsJobsAndMeasures) {
  const auto result = driver::run_sweep(small_spec(), 2);
  ASSERT_EQ(result.jobs.size(), 6u);
  EXPECT_TRUE(result.all_ok());
  for (const auto& job : result.jobs) {
    EXPECT_GT(job.m.sofia_cycles, job.m.vanilla_cycles);
    EXPECT_GT(job.m.sofia_text_bytes, job.m.vanilla_text_bytes);
  }
}

TEST(Sweep, JobFailureIsCapturedNotThrown) {
  auto spec = small_spec();
  spec.workloads = {"fib"};
  // An unusable block geometry makes the transform throw inside the job.
  spec.configs[0].opts.profile.policy.words_per_block = 3;
  spec.configs.resize(1);
  const auto result = driver::run_sweep(spec, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].ok);
  EXPECT_FALSE(result.jobs[0].error.empty());
  EXPECT_FALSE(result.all_ok());
}

TEST(Sweep, JsonIsByteIdenticalAcrossThreadCounts) {
  // The satellite requirement: --threads 1 and --threads 8 must emit
  // byte-identical documents. Seeds are fixed at expansion time and
  // results land in job-index order, so interleaving cannot show through.
  const auto spec = small_spec();
  const auto one = driver::run_sweep(spec, 1);
  const auto eight = driver::run_sweep(spec, 8);
  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(driver::to_json(one), driver::to_json(eight));
}

TEST(Sweep, JsonCarriesSchemaAndPerJobRecords) {
  auto spec = small_spec();
  spec.workloads = {"fib"};
  spec.configs.resize(1);
  const auto doc = driver::to_json(driver::run_sweep(spec, 1));
  EXPECT_NE(doc.find("\"schema\": \"sofia-sweep-v5\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"workload\": \"fib\""), std::string::npos);
  EXPECT_NE(doc.find("\"scheme\": \"sofia-cbcmac\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"cycle\""), std::string::npos);
  EXPECT_NE(doc.find("\"fingerprint\": \"gran=per-pair"), std::string::npos);
  EXPECT_NE(doc.find("\"cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"text_bytes\""), std::string::npos);
  EXPECT_NE(doc.find("\"cycles_pct\""), std::string::npos);
  // Wall-clock and thread count must NOT leak into the document.
  EXPECT_EQ(doc.find("wall"), std::string::npos);
  EXPECT_EQ(doc.find("threads"), std::string::npos);
}

TEST(Sweep, ProgressCallbackFiresOncePerJob) {
  auto spec = small_spec();
  int calls = 0;
  const auto result =
      driver::run_sweep(spec, 4, [&](const driver::JobResult&) { ++calls; });
  EXPECT_EQ(calls, static_cast<int>(result.jobs.size()));
}

// ---------------------------------------------------------------------------
// Sharding + merge (the multi-machine path)
// ---------------------------------------------------------------------------

TEST(Json, ParseRoundTripsWriterOutput) {
  json::Writer w(2);
  w.begin_object();
  w.member("s", "a\"b\n");
  w.member("i", static_cast<std::uint64_t>(42));
  w.member("f", 2.537);
  w.member("t", true);
  w.key("n").null();
  w.key("arr").begin_array().value(1).value("x").end_array();
  w.key("obj").begin_object().member("k", 7).end_object();
  w.end_object();
  const std::string doc = w.str();

  const auto v = json::parse(doc);
  ASSERT_EQ(v.kind, json::Value::Kind::kObject);
  EXPECT_EQ(v.find("s")->string, "a\"b\n");
  EXPECT_EQ(v.find("i")->as_uint("i"), 42u);
  EXPECT_EQ(v.find("f")->number, "2.537");  // verbatim source token
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("n")->kind, json::Value::Kind::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 2u);

  // Re-emission through a Writer is byte-identical: the property the
  // sharded-sweep merge rests on.
  json::Writer w2(2);
  v.write(w2);
  EXPECT_EQ(w2.str(), doc);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
  EXPECT_THROW(json::parse("{\"a\": }"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
  // Nesting past json::kMaxDepth is an error, not a stack overflow.
  EXPECT_THROW(json::parse(std::string(200000, '[')), Error);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\": ";
  EXPECT_THROW(json::parse(objects), Error);
}

TEST(Shard, ParseAndValidate) {
  const auto s = driver::ShardSpec::parse("1/3");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_FALSE(s.is_whole());
  EXPECT_TRUE(driver::ShardSpec{}.is_whole());
  EXPECT_THROW(driver::ShardSpec::parse("3/3"), Error);   // index out of range
  EXPECT_THROW(driver::ShardSpec::parse("0/0"), Error);   // zero shards
  EXPECT_THROW(driver::ShardSpec::parse("nope"), Error);  // no slash
  EXPECT_THROW(driver::ShardSpec::parse("1/x"), Error);   // non-decimal
}

TEST(Shard, RunsOnlyTheSlice) {
  const auto spec = small_spec();  // 6 jobs
  const auto shard0 = driver::run_sweep(spec, 1, {}, {0, 2});
  const auto shard1 = driver::run_sweep(spec, 1, {}, {1, 2});
  EXPECT_EQ(shard0.total_jobs, 6u);
  ASSERT_EQ(shard0.jobs.size(), 3u);
  ASSERT_EQ(shard1.jobs.size(), 3u);
  for (const auto& job : shard0.jobs) EXPECT_EQ(job.job.index % 2, 0u);
  for (const auto& job : shard1.jobs) EXPECT_EQ(job.job.index % 2, 1u);
}

TEST(Shard, ShardedDocumentsCarryTheShardMember) {
  const auto doc = driver::to_json(driver::run_sweep(small_spec(), 1, {}, {1, 2}));
  EXPECT_NE(doc.find("\"shard\": \"1/2\""), std::string::npos);
  EXPECT_NE(doc.find("\"job_count\": 6"), std::string::npos);  // full matrix
}

TEST(Shard, MergeReassemblesTheCanonicalDocumentByteIdentically) {
  // The ROADMAP contract: shard(2) + merge == unsharded, byte for byte.
  const auto spec = small_spec();
  const auto unsharded = driver::to_json(driver::run_sweep(spec, 1));
  const auto doc0 = driver::to_json(driver::run_sweep(spec, 2, {}, {0, 2}));
  const auto doc1 = driver::to_json(driver::run_sweep(spec, 2, {}, {1, 2}));
  EXPECT_NE(doc0, unsharded);
  // Merge order must not matter.
  EXPECT_EQ(driver::merge_json({doc0, doc1}), unsharded);
  EXPECT_EQ(driver::merge_json({doc1, doc0}), unsharded);
  // Merging the unsharded document is the identity.
  EXPECT_EQ(driver::merge_json({unsharded}), unsharded);
}

TEST(Shard, MergeRejectsGapsOverlapsAndMismatches) {
  const auto spec = small_spec();
  const auto doc0 = driver::to_json(driver::run_sweep(spec, 1, {}, {0, 2}));
  const auto doc1 = driver::to_json(driver::run_sweep(spec, 1, {}, {1, 2}));
  EXPECT_THROW(driver::merge_json({}), Error);
  EXPECT_THROW(driver::merge_json({doc0}), Error);        // gap: odd indices
  EXPECT_THROW(driver::merge_json({doc0, doc0}), Error);  // duplicate indices
  auto other = spec;
  other.name = "other-sweep";
  const auto doc_other = driver::to_json(driver::run_sweep(other, 1, {}, {1, 2}));
  EXPECT_THROW(driver::merge_json({doc0, doc_other}), Error);
  EXPECT_THROW(driver::merge_json({doc0, "not json"}), Error);
  // A job_count no record set can match is rejected before it sizes
  // anything.
  EXPECT_THROW(driver::merge_json({R"({"schema": "sofia-sweep-v5", "sweep": "x",
    "job_count": 1152921504606846976, "jobs": []})"}),
               Error);
}

TEST(Sweep, SmokeShrinksButKeepsConfigs) {
  const auto full = driver::matrix("granularity");
  const auto small = driver::smoke(full);
  EXPECT_EQ(small.configs.size(), full.configs.size());
  EXPECT_LT(driver::expand_jobs(small).size(),
            driver::expand_jobs(full).size());
  const auto result = driver::run_sweep(small, 2);
  EXPECT_TRUE(result.all_ok());
}

}  // namespace
}  // namespace sofia
