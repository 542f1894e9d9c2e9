// The content-addressed result cache: key derivation, the on-disk entry
// format, loud-miss semantics for corrupt entries, lock-free concurrent
// writers, LRU gc — and the contract that matters most to the drivers:
// a warm sweep/campaign renders a document byte-identical to the cold run
// and to a cache-less run, while executing zero jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cache/result_store.hpp"
#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "pipeline/device_profile.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"

namespace {

using namespace sofia;
namespace fs = std::filesystem;

/// A fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;

  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "sofia-cache-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw Error("mkdtemp failed for " + tmpl);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A warning sink that records every message.
struct WarnLog {
  std::vector<std::string> messages;
  cache::WarnFn fn() {
    return [this](const std::string& m) { messages.push_back(m); };
  }
};

cache::Key key_of(std::string_view tag) {
  return cache::KeyBuilder("test-domain").field("tag", tag).finish();
}

/// The entry's on-disk location (mirrors ResultStore's layout contract:
/// root/<2-hex-prefix>/<64-hex>.sce).
fs::path entry_path(const fs::path& root, const cache::Key& key) {
  const std::string hex = cache::to_hex(key);
  return root / hex.substr(0, 2) /
         (hex + std::string(cache::kEntryExtension));
}

/// Re-store every entry under `root` with a payload that passes its digest
/// check but decodes as neither engine's payload schema.
void store_undecodable_payloads(const fs::path& root) {
  cache::ResultStore store(root);
  for (const auto& info : cache::scan(root)) {
    cache::Key key{};
    for (std::size_t i = 0; i < key.size(); ++i)
      key[i] = static_cast<std::uint8_t>(
          std::stoul(info.key_hex.substr(2 * i, 2), nullptr, 16));
    store.store(key, info.kind, "{\"schema\": \"not-a-payload\"}");
  }
}

// ---- key derivation --------------------------------------------------------

TEST(KeyBuilder, DeterministicAndInputSensitive) {
  const auto a = cache::KeyBuilder("d").field("x", "hello").finish();
  const auto b = cache::KeyBuilder("d").field("x", "hello").finish();
  const auto c = cache::KeyBuilder("d").field("x", "hellp").finish();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(KeyBuilder, AdjacentFieldsCannotAlias) {
  // Without per-field length prefixes these two would hash the same bytes.
  const auto ab_c =
      cache::KeyBuilder("d").field("l", "ab").field("l", "c").finish();
  const auto a_bc =
      cache::KeyBuilder("d").field("l", "a").field("l", "bc").finish();
  EXPECT_NE(ab_c, a_bc);
}

TEST(KeyBuilder, LabelAndDomainSeparate) {
  const auto x = cache::KeyBuilder("d").field("x", "v").finish();
  const auto y = cache::KeyBuilder("d").field("y", "v").finish();
  const auto other_domain = cache::KeyBuilder("d2").field("x", "v").finish();
  EXPECT_NE(x, y);
  EXPECT_NE(x, other_domain);
}

TEST(KeyBuilder, NumberAndBytesFieldsAreTyped) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  const auto from_bytes = cache::KeyBuilder("d").field("f", bytes).finish();
  const auto from_text =
      cache::KeyBuilder("d").field("f", std::string_view("\x01\x02\x03", 3))
          .finish();
  // Same raw bytes through either overload — same key (the prefix encodes
  // label + length, not C++ type).
  EXPECT_EQ(from_bytes, from_text);
  const auto n1 = cache::KeyBuilder("d").field("n", std::uint64_t{1}).finish();
  const auto n2 = cache::KeyBuilder("d").field("n", std::uint64_t{2}).finish();
  EXPECT_NE(n1, n2);
}

// ---- canonical SimConfig bytes ---------------------------------------------

/// SHA-256 hex of the canonical SimConfig bytes for one profile.
std::string config_digest(const pipeline::DeviceProfile& profile,
                          const sim::FaultInjection& fault = {}) {
  sim::SimConfig config;
  profile.configure(config);
  config.fault = fault;
  return support::to_hex(support::sha256(sim::encode_config(config)));
}

TEST(ConfigEncoding, CacheKeyBytesArePinned) {
  // Every sweep and campaign cache key hashes these bytes; a change to the
  // field order or widths silently turns every existing cache into misses.
  // A deliberate encoding change must bump the "sofia-cache-key-v1" key
  // domains in the same commit.
  auto speck_flta =
      pipeline::DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
  speck_flta.scheme = "flta";
  speck_flta.backend = "functional";
  EXPECT_EQ(config_digest(pipeline::DeviceProfile::paper_default()),
            "56d9fa11be506a4be9c5111f01016f2b3a12ff41f8938a12acaa042376bae352");
  EXPECT_EQ(config_digest(speck_flta),
            "f3732d16c095fecfab2f282dd8b293d1809a485130e404035e100bf1e5e5c44f");
  EXPECT_EQ(config_digest(pipeline::DeviceProfile::paper_default(),
                          {.enabled = true, .fetch_index = 7, .bit = 13}),
            "e69b4ea201635166155eaa676405d90d325d2f50e599ae0e58eacf97d0246c78");
}

// ---- store / load ----------------------------------------------------------

TEST(ResultStore, RoundTripsPayloadAndCountsStats) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());

  const auto key = key_of("round-trip");
  EXPECT_FALSE(store.load(key, "job").has_value());  // silent miss
  EXPECT_TRUE(warnings.messages.empty());

  const std::string payload("result bytes \x00\x01\xff with binary", 28);
  store.store(key, "job", payload);
  const auto hit = store.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);

  const auto s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stored, 1u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_TRUE(warnings.messages.empty());
}

TEST(ResultStore, SecondStoreSharesTheEntryAcrossInstances) {
  TempDir dir;
  const auto key = key_of("shared");
  {
    cache::ResultStore writer(dir.path);
    writer.store(key, "job", "payload");
  }
  cache::ResultStore reader(dir.path);  // a different coordinator
  const auto hit = reader.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
}

TEST(ResultStore, WrongKindIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("kind");
  store.store(key, "sweep-job", "payload");
  EXPECT_FALSE(store.load(key, "campaign-trial").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("re-executing"), std::string::npos)
      << warnings.messages[0];
}

TEST(ResultStore, TruncatedEntryIsALoudMissThenReexecutable) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("truncated");
  store.store(key, "job", "a payload long enough to truncate");

  const fs::path path = entry_path(dir.path, key);
  const auto full = io::read_file(path.string());
  io::write_file(path.string(), full.substr(0, full.size() - 5));

  EXPECT_FALSE(store.load(key, "job").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("unusable"), std::string::npos);

  // Re-execution stores again and the entry is healthy once more.
  store.store(key, "job", "a payload long enough to truncate");
  EXPECT_TRUE(store.load(key, "job").has_value());
}

TEST(ResultStore, GarbledPayloadFailsTheDigestCheck) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("garbled");
  store.store(key, "job", "sixteen byte pay");

  const fs::path path = entry_path(dir.path, key);
  auto bytes = io::read_file(path.string());
  bytes.back() ^= 0x20;  // flip a payload bit; the length stays right
  io::write_file(path.string(), bytes);

  EXPECT_FALSE(store.load(key, "job").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("unusable"), std::string::npos);
}

TEST(ResultStore, WrongSchemaHeaderIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("schema");
  store.store(key, "job", "payload");

  const fs::path path = entry_path(dir.path, key);
  auto bytes = io::read_file(path.string());
  const auto pos = bytes.find("sofia-cache-entry-v1");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 20, "sofia-cache-entry-v9");
  io::write_file(path.string(), bytes);

  EXPECT_FALSE(store.load(key, "job").has_value());
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, EntryUnderTheWrongNameIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("original");
  const auto other = key_of("somewhere-else");
  store.store(key, "job", "payload");

  const fs::path to = entry_path(dir.path, other);
  fs::create_directories(to.parent_path());
  fs::rename(entry_path(dir.path, key), to);

  EXPECT_FALSE(store.load(other, "job").has_value());
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, StoreFailureWarnsAndCountsButNeverThrows) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("blocked");
  // Occupy the shard directory's name with a FILE so create_directories
  // inside store() must fail.
  const fs::path shard = entry_path(dir.path, key).parent_path();
  io::write_file(shard.string(), "not a directory");

  EXPECT_NO_THROW(store.store(key, "job", "payload"));
  EXPECT_EQ(store.stats().failures, 1u);
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, ConcurrentWritersOfTheSameKeyRaceBenignly) {
  TempDir dir;
  const auto key = key_of("contended");
  const std::string payload(4096, 'x');

  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&] {
      cache::ResultStore store(dir.path);
      for (int r = 0; r < 25; ++r) store.store(key, "job", payload);
    });
  }
  for (auto& t : writers) t.join();

  cache::ResultStore reader(dir.path);
  const auto hit = reader.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  const auto report = cache::verify_entries(dir.path);
  EXPECT_EQ(report.checked, 1u);
  EXPECT_EQ(report.bad, 0u);
  // No temp files left behind by any writer.
  std::uint64_t stray = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path))
    if (e.is_regular_file() &&
        e.path().extension() != cache::kEntryExtension)
      ++stray;
  EXPECT_EQ(stray, 0u);
}

// ---- maintenance -----------------------------------------------------------

TEST(Maintenance, ScanListsEntriesSortedByKey) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("b"), "job", "2");
  store.store(key_of("a"), "job", "1");
  store.store(key_of("c"), "trial", "3");

  const auto entries = cache::scan(dir.path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_LT(entries[0].key_hex, entries[1].key_hex);
  EXPECT_LT(entries[1].key_hex, entries[2].key_hex);
  for (const auto& e : entries) {
    EXPECT_TRUE(e.header_ok);
    EXPECT_FALSE(e.kind.empty());
    EXPECT_GT(e.file_bytes, e.payload_bytes);
  }
}

TEST(Maintenance, VerifyFlagsOnlyTheCorruptEntry) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("good"), "job", "healthy payload");
  store.store(key_of("bad"), "job", "doomed payload!");

  const fs::path victim = entry_path(dir.path, key_of("bad"));
  auto bytes = io::read_file(victim.string());
  bytes.back() ^= 1;
  io::write_file(victim.string(), bytes);

  const auto report = cache::verify_entries(dir.path);
  EXPECT_EQ(report.checked, 2u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.bad, 1u);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find(cache::to_hex(key_of("bad"))),
            std::string::npos)
      << report.problems[0];
}

TEST(Maintenance, GcEvictsLeastRecentlyUsedFirst) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  const auto old_key = key_of("old");
  const auto hot_key = key_of("hot");
  store.store(old_key, "job", std::string(1000, 'o'));
  store.store(hot_key, "job", std::string(1000, 'h'));

  // Make the recency order unambiguous (filesystem mtime granularity can
  // be a full second): push "old" into the past, then touch "hot" through
  // a load, which is the LRU signal gc uses.
  fs::last_write_time(entry_path(dir.path, old_key),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(1));
  ASSERT_TRUE(store.load(hot_key, "job").has_value());

  const auto report = cache::gc(dir.path, 1500);  // room for one entry only
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.removed, 1u);
  EXPECT_FALSE(fs::exists(entry_path(dir.path, old_key)));
  EXPECT_TRUE(fs::exists(entry_path(dir.path, hot_key)));
}

TEST(Maintenance, GcSweepsStaleTempFiles) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("live"), "job", "payload");

  const fs::path shard = entry_path(dir.path, key_of("live")).parent_path();
  const fs::path stale = shard / ".tmp-deadbeef-1-1";
  io::write_file(stale.string(), "half-written by a dead writer");
  fs::last_write_time(
      stale, fs::file_time_type::clock::now() - std::chrono::hours(1));

  const auto report = cache::gc(dir.path, 1u << 20);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_FALSE(fs::exists(stale));
}

TEST(ResultStore, OpenResolvesFlagThenEnvThenNothing) {
  TempDir dir;
  const std::string flag_dir = (dir.path / "flag").string();
  const std::string env_dir = (dir.path / "env").string();

  ::unsetenv("SOFIA_CACHE");
  EXPECT_EQ(cache::ResultStore::open(""), nullptr);

  ::setenv("SOFIA_CACHE", env_dir.c_str(), 1);
  auto from_env = cache::ResultStore::open("");
  ASSERT_NE(from_env, nullptr);
  EXPECT_EQ(from_env->root().string(), env_dir);

  auto from_flag = cache::ResultStore::open(flag_dir);  // flag wins over env
  ASSERT_NE(from_flag, nullptr);
  EXPECT_EQ(from_flag->root().string(), flag_dir);
  ::unsetenv("SOFIA_CACHE");
}

// ---- driver integration ----------------------------------------------------

driver::SweepSpec small_spec() {
  driver::SweepSpec spec;
  spec.name = "unit";
  spec.workloads = {"fib", "crc32"};
  spec.size_divisor = 16;
  spec.vary_seed = true;
  spec.configs = {driver::paper_default_config()};
  return spec;
}

TEST(SweepCache, WarmRunExecutesNothingAndRendersIdenticalBytes) {
  TempDir dir;
  const auto spec = small_spec();
  const auto uncached = driver::run_sweep(spec, 2);

  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 2, {}, {}, &cold_store);
  EXPECT_EQ(cold.cached_jobs(), 0u);
  EXPECT_EQ(cold_store.stats().stored, cold.jobs.size());

  cache::ResultStore warm_store(dir.path);
  const auto warm = driver::run_sweep(spec, 2, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), warm.jobs.size());
  EXPECT_EQ(warm_store.stats().hits, warm.jobs.size());
  EXPECT_EQ(warm_store.stats().misses, 0u);

  EXPECT_EQ(driver::to_json(uncached), driver::to_json(cold));
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));

  // The same contract on every built-in matrix's smoke form.
  for (const auto& name : driver::matrix_names()) {
    const auto smoke = driver::smoke(driver::matrix(name));
    TempDir matrix_dir;
    cache::ResultStore smoke_cold_store(matrix_dir.path);
    const auto smoke_cold =
        driver::run_sweep(smoke, 2, {}, {}, &smoke_cold_store);
    cache::ResultStore smoke_warm_store(matrix_dir.path);
    const auto smoke_warm =
        driver::run_sweep(smoke, 2, {}, {}, &smoke_warm_store);
    EXPECT_EQ(smoke_warm.cached_jobs(), smoke_warm.jobs.size()) << name;
    EXPECT_EQ(driver::to_json(smoke_cold), driver::to_json(smoke_warm))
        << name;
  }
}

TEST(SweepCache, ShardedColdRunSeedsAFullWarmRun) {
  TempDir dir;
  const auto spec = small_spec();
  cache::ResultStore shard_store(dir.path);
  const auto shard0 =
      driver::run_sweep(spec, 1, {}, driver::ShardSpec{0, 2}, &shard_store);

  cache::ResultStore full_store(dir.path);
  const auto full = driver::run_sweep(spec, 1, {}, {}, &full_store);
  EXPECT_EQ(full.cached_jobs(), shard0.jobs.size());
  EXPECT_EQ(full_store.stats().hits, shard0.jobs.size());
  EXPECT_EQ(driver::to_json(full), driver::to_json(driver::run_sweep(spec, 1)));
}

TEST(SweepCache, CorruptEntryTriggersReexecutionNotFailure) {
  TempDir dir;
  const auto spec = small_spec();
  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);

  // Garble every entry: the warm run must re-execute every job and still
  // render the same bytes.
  for (const auto& info : cache::scan(dir.path)) {
    auto bytes = io::read_file(info.path.string());
    bytes.back() ^= 1;
    io::write_file(info.path.string(), bytes);
  }

  WarnLog warnings;
  cache::ResultStore warm_store(dir.path, warnings.fn());
  const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), 0u);
  EXPECT_EQ(warm_store.stats().misses, warm.jobs.size());
  EXPECT_EQ(warnings.messages.size(), warm.jobs.size());
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));

  // The re-execution healed the entries.
  EXPECT_EQ(cache::verify_entries(dir.path).bad, 0u);
}

TEST(SweepCache, UndecodablePayloadWarnsAndReexecutes) {
  TempDir dir;
  const auto spec = small_spec();
  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);
  store_undecodable_payloads(dir.path);

  WarnLog warnings;
  cache::ResultStore warm_store(dir.path, warnings.fn());
  const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), 0u);
  ASSERT_EQ(warnings.messages.size(), warm.jobs.size());
  for (std::size_t i = 0; i < warm.jobs.size(); ++i)
    EXPECT_EQ(warnings.messages[i],
              "cache: sweep-job payload for job " + std::to_string(i) +
                  " is undecodable; re-executing");
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));
  EXPECT_EQ(cache::verify_entries(dir.path).bad, 0u);
}

TEST(SweepCache, LintFindingsAreCachedDeterministically) {
  TempDir dir;
  auto spec = small_spec();
  spec.lint = true;
  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);
  cache::ResultStore warm_store(dir.path);
  const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), warm.jobs.size());
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));
}

// ---- campaign integration --------------------------------------------------

campaign::CampaignSpec smoke_spec(std::uint32_t jobs) {
  auto spec = campaign::smoke(campaign::default_campaign());
  spec.jobs_per_cell = jobs;
  return spec;
}

TEST(CampaignCache, WarmRunServesEveryTrialFromDisk) {
  TempDir dir;
  const auto spec = smoke_spec(25);
  const auto uncached = campaign::run_campaign(spec, 2);

  cache::ResultStore cold_store(dir.path);
  const auto cold = campaign::run_campaign(spec, 2, {}, {}, &cold_store);
  EXPECT_EQ(cold.cached_trials, 0u);

  cache::ResultStore warm_store(dir.path);
  const auto warm = campaign::run_campaign(spec, 2, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_trials, warm_store.stats().hits);
  EXPECT_EQ(warm_store.stats().misses, 0u);
  EXPECT_GT(warm.cached_trials, 0u);

  EXPECT_EQ(campaign::to_json(uncached), campaign::to_json(cold));
  EXPECT_EQ(campaign::to_json(cold), campaign::to_json(warm));
}

TEST(CampaignCache, UndecodablePayloadWarnsAndReexecutes) {
  TempDir dir;
  const auto spec = smoke_spec(5);
  cache::ResultStore cold_store(dir.path);
  const auto cold = campaign::run_campaign(spec, 1, {}, {}, &cold_store);
  store_undecodable_payloads(dir.path);

  WarnLog warnings;
  cache::ResultStore warm_store(dir.path, warnings.fn());
  const auto warm = campaign::run_campaign(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_trials, 0u);
  ASSERT_EQ(warnings.messages.size(), spec.total_jobs());
  for (std::size_t i = 0; i < spec.total_jobs(); ++i)
    EXPECT_EQ(warnings.messages[i],
              "cache: campaign-trial payload for job " + std::to_string(i) +
                  " is undecodable; re-executing");
  EXPECT_EQ(campaign::to_json(cold), campaign::to_json(warm));
  EXPECT_EQ(cache::verify_entries(dir.path).bad, 0u);
}

TEST(CampaignCache, InterruptedShardResumesIntoTheFullRun) {
  TempDir dir;
  const auto spec = smoke_spec(20);
  // "Interrupted": only shard 0/2 completed before the coordinator died.
  cache::ResultStore shard_store(dir.path);
  (void)campaign::run_campaign(spec, 1, {}, driver::ShardSpec{0, 2},
                               &shard_store);
  const auto first_half = shard_store.stats().stored;
  EXPECT_GT(first_half, 0u);

  // The relaunched full run picks the first half up from disk and converges
  // to the same bytes as an uncached run.
  cache::ResultStore resume_store(dir.path);
  const auto resumed = campaign::run_campaign(spec, 2, {}, {}, &resume_store);
  EXPECT_EQ(resume_store.stats().hits, first_half);
  EXPECT_EQ(campaign::to_json(resumed),
            campaign::to_json(campaign::run_campaign(spec, 2)));
}

}  // namespace
