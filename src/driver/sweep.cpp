#include "driver/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "assembler/image_io.hpp"
#include "driver/pool.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia::driver {

namespace {

constexpr std::string_view kSchema = "sofia-sweep-v5";

std::string bool01(bool b) { return b ? "1" : "0"; }

}  // namespace

std::string ConfigPoint::fingerprint() const {
  const auto& p = opts.profile;
  const auto& c = opts.config;
  std::string fp;
  fp += "gran=";
  fp += crypto::to_string(p.granularity);
  fp += " alt=" + bool01(c.cipher.alternate);
  fp += " pipe=" + bool01(c.cipher.pipelined);
  fp += " lat=" + std::to_string(c.cipher.latency);
  fp += " policy=" + std::to_string(p.policy.words_per_block) + "/" +
        std::to_string(p.policy.store_min_word);
  fp += " cipher=";
  fp += crypto::to_string(p.cipher);
  if (p.key_source == pipeline::KeySource::kSeed)
    fp += " keys=seed:" + std::to_string(p.key_seed);
  fp += " icache=" + std::to_string(c.icache.size_bytes) + "x" +
        std::to_string(c.icache.line_bytes);
  fp += " unroll=" + std::to_string(unroll_cycles);
  fp += " scheme=" + p.scheme;
  fp += " backend=" + p.backend;
  return fp;
}

ConfigPoint paper_default_config() {
  ConfigPoint p;
  p.name = "paper-default";
  p.opts = bench::default_measure_options();
  p.unroll_cycles = 2;
  return p;
}

std::vector<std::string> SweepSpec::resolved_workloads() const {
  if (!workloads.empty()) return workloads;
  std::vector<std::string> names;
  for (const auto& spec : workloads::all_workloads()) names.push_back(spec.name);
  return names;
}

std::vector<JobSpec> expand_jobs(const SweepSpec& spec) {
  std::vector<JobSpec> jobs;
  for (const auto& name : spec.resolved_workloads()) {
    const auto& wl = workloads::workload(name);  // throws for unknown names
    std::uint32_t size = spec.size_override ? spec.size_override : wl.default_size;
    size = std::max(4u, size / std::max(1u, spec.size_divisor));
    for (const auto& config : spec.configs) {
      JobSpec job;
      job.index = jobs.size();
      job.workload = name;
      job.size = size;
      job.seed = spec.vary_seed ? spec.base_seed + job.index : spec.base_seed;
      job.config = config;
      job.lint = spec.lint;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

bool SweepResult::all_ok() const {
  return std::all_of(jobs.begin(), jobs.end(),
                     [](const JobResult& r) { return r.ok; });
}

std::size_t SweepResult::cached_jobs() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const JobResult& r) { return r.from_cache; }));
}

namespace {

// ---- result-cache payload codec -------------------------------------------
//
// The cache stores the *semantic* outcome of a job (measurement numbers,
// or the error + lint findings), never the rendered sweep record: the same
// semantic cell can appear at different matrix indices and under different
// config labels, and the document renderer must stay the single source of
// formatting so cached and fresh runs are byte-identical.

constexpr std::string_view kJobKind = "sweep-job";
constexpr std::string_view kJobPayloadSchema = "sofia-cache-sweep-job-v1";

/// The payload's SimStats members, in the order they are written.
constexpr std::pair<std::string_view, std::uint64_t sim::SimStats::*>
    kStatsFields[] = {
        {"cycles", &sim::SimStats::cycles},
        {"insts", &sim::SimStats::insts},
        {"nops", &sim::SimStats::nops},
        {"loads", &sim::SimStats::loads},
        {"stores", &sim::SimStats::stores},
        {"branches", &sim::SimStats::branches},
        {"taken", &sim::SimStats::taken},
        {"icache_hits", &sim::SimStats::icache_hits},
        {"icache_misses", &sim::SimStats::icache_misses},
        {"fetch_words", &sim::SimStats::fetch_words},
        {"mac_words", &sim::SimStats::mac_words},
        {"ctr_ops", &sim::SimStats::ctr_ops},
        {"cbc_ops", &sim::SimStats::cbc_ops},
        {"blocks_fetched", &sim::SimStats::blocks_fetched},
        {"mac_verifications", &sim::SimStats::mac_verifications},
        {"store_gate_stalls", &sim::SimStats::store_gate_stalls},
        {"queue_empty_cycles", &sim::SimStats::queue_empty_cycles},
        {"exec_stall_cycles", &sim::SimStats::exec_stall_cycles},
};

void stats_to_json(const sim::SimStats& s, json::Writer& w) {
  w.begin_object();
  for (const auto& [name, field] : kStatsFields) w.member(name, s.*field);
  w.end_object();
}

/// Context for payload decode errors (they only ever mean "miss").
constexpr std::string_view kPayload = "cache payload";

sim::SimStats stats_from_json(const json::Value& v) {
  sim::SimStats s;
  for (const auto& [name, field] : kStatsFields)
    s.*field = v.uint_at(name, kPayload);
  return s;
}

/// One lint finding, as the payload and the sweep record both write it.
void finding_to_json(const verify::Finding& f, json::Writer& w) {
  w.begin_object();
  w.member("rule", verify::to_string(f.rule));
  w.member("severity", verify::to_string(f.severity));
  w.member("block", f.block);
  w.member("insn", f.insn);
  w.member("message", f.message);
  w.end_object();
}

std::string encode_job_payload(const JobResult& r) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", kJobPayloadSchema);
  w.member("ok", r.ok);
  if (!r.ok) {
    w.member("error", r.error);
    w.key("lint").begin_array();
    for (const auto& f : r.lint) finding_to_json(f, w);
    w.end_array();
  } else {
    w.key("m").begin_object();
    w.member("name", r.m.name);
    w.member("vanilla_text_bytes", r.m.vanilla_text_bytes);
    w.member("sofia_text_bytes", r.m.sofia_text_bytes);
    w.member("vanilla_cycles", r.m.vanilla_cycles);
    w.member("sofia_cycles", r.m.sofia_cycles);
    w.key("vanilla_stats");
    stats_to_json(r.m.vanilla_stats, w);
    w.key("sofia_stats");
    stats_to_json(r.m.sofia_stats, w);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

verify::Severity parse_severity(const std::string& name) {
  for (const auto s : {verify::Severity::kNote, verify::Severity::kWarning,
                       verify::Severity::kError})
    if (verify::to_string(s) == name) return s;
  throw Error("cache payload: unknown severity '" + name + "'");
}

/// Decode a cached payload into `r` (everything but `job`, which the
/// caller owns). Returns false — leaving `r` untouched — on any mismatch,
/// so an undecodable entry degrades to a miss, never a crash.
bool decode_job_payload(const std::string& payload, JobResult& r) {
  try {
    const json::Value doc = json::parse(payload);
    if (doc.string_at("schema", kPayload) != kJobPayloadSchema) return false;
    JobResult out;
    out.job = r.job;
    out.ok = doc.bool_at("ok", kPayload);
    if (!out.ok) {
      out.error = doc.string_at("error", kPayload);
      for (const auto& jf : doc.array_at("lint", kPayload)) {
        verify::Finding f;
        f.rule = verify::parse_rule(jf.string_at("rule", kPayload));
        f.severity = parse_severity(jf.string_at("severity", kPayload));
        f.block = jf.int_at("block", kPayload);
        f.insn = jf.int_at("insn", kPayload);
        f.message = jf.string_at("message", kPayload);
        out.lint.push_back(std::move(f));
      }
    } else {
      const auto& m = doc.at("m", kPayload);
      out.m.name = m.string_at("name", kPayload);
      out.m.vanilla_text_bytes =
          m.narrow_uint_at<std::uint32_t>("vanilla_text_bytes", kPayload);
      out.m.sofia_text_bytes =
          m.narrow_uint_at<std::uint32_t>("sofia_text_bytes", kPayload);
      out.m.vanilla_cycles = m.uint_at("vanilla_cycles", kPayload);
      out.m.sofia_cycles = m.uint_at("sofia_cycles", kPayload);
      out.m.vanilla_stats = stats_from_json(m.at("vanilla_stats", kPayload));
      out.m.sofia_stats = stats_from_json(m.at("sofia_stats", kPayload));
    }
    r = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// The content address of one job: everything that can change its result.
/// The hardened image bytes are the load-bearing field — they capture the
/// whole toolchain (assembler, transform, scheme, keys, layout); profile
/// fingerprint, canonical SimConfig encoding (sim::encode_config) and the
/// seed cover the device and harness side.
cache::Key job_key(const JobSpec& job, pipeline::Pipeline& p) {
  cache::KeyBuilder kb("sofia-cache-key-v1/sweep-job");
  kb.field("fingerprint", job.config.fingerprint());
  kb.field("image", assembler::serialize_image(p.hardened().image));
  kb.field("config", sim::encode_config(p.effective_sim_config()));
  kb.field("workload", job.workload);
  kb.field("seed", job.seed);
  kb.field("size", job.size);
  kb.field("lint", job.lint ? 1 : 0);
  return kb.finish();
}

/// The lint prefilter, then the vanilla + SOFIA measurement; failures land
/// in `result`.
void execute(const JobSpec& job, pipeline::Pipeline& p, JobResult& result) {
  try {
    if (job.lint) {
      // Lint prefilter: verify the hardened image statically and fail the
      // job before either device run; the same session then measures, so
      // the transform is not repeated.
      const verify::Report report = p.lint();
      if (!report.clean()) {
        for (const auto& f : report.findings)
          if (f.severity == verify::Severity::kError) result.lint.push_back(f);
        result.error = "lint: " + std::to_string(result.lint.size()) +
                       " error-severity finding(s), first: " +
                       std::string(verify::to_string(result.lint.front().rule));
        return;
      }
    }
    result.m = p.measure();
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
}

JobResult run_job(const JobSpec& job, cache::ResultStore* store) {
  JobResult result;
  result.job = job;
  try {
    const auto& wl = workloads::workload(job.workload);
    auto p = pipeline::Pipeline::from_workload(wl, job.seed, job.size,
                                               job.config.opts.profile);
    p.set_sim_config(job.config.opts.config);
    p.set_memory_layout(job.config.opts.mem);
    // Key derivation runs the transform (cheap) but neither device run
    // (the expensive part a hit skips). Measurements AND deterministic
    // failures (functional mismatches, lint) are cacheable; only jobs that
    // died before a key existed are not.
    result.from_cache = cached_job(
        store, kJobKind, job.index, [&] { return job_key(job, p); },
        [&](const std::string& payload) {
          return decode_job_payload(payload, result);
        },
        [&] {
          execute(job, p, result);
          return true;
        },
        [&] { return encode_job_payload(result); });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, unsigned threads,
                      const ProgressFn& progress, ShardSpec shard,
                      cache::ResultStore* store) {
  const auto all_jobs = expand_jobs(spec);
  const auto slice = shard_slice(all_jobs.size(), shard);

  SweepResult result;
  result.sweep_name = spec.name;
  result.total_jobs = all_jobs.size();
  result.shard = shard;
  result.jobs.resize(slice.size());

  const auto t0 = std::chrono::steady_clock::now();

  // Each worker claims the next unclaimed job index and writes its result
  // into the job's own slot (driver::for_each_index), so the output order
  // (and the JSON rendered from it) never depends on thread interleaving.
  std::mutex progress_mutex;
  result.threads_used =
      for_each_index(slice.size(), threads, [&](std::size_t i) {
        result.jobs[i] = run_job(all_jobs[slice[i]], store);
        if (progress) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          progress(result.jobs[i]);
        }
      });

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

std::string to_json(const SweepResult& result) {
  const hw::HwModel model;
  json::Writer w(2);
  w.begin_object();
  w.member("schema", kSchema);
  w.member("sweep", result.sweep_name);
  w.member("job_count", static_cast<std::uint64_t>(
                            result.total_jobs ? result.total_jobs
                                              : result.jobs.size()));
  if (!result.shard.is_whole()) w.member("shard", result.shard.to_string());
  w.key("jobs").begin_array();
  for (const auto& r : result.jobs) {
    w.begin_object();
    w.member("index", static_cast<std::uint64_t>(r.job.index));
    w.member("workload", r.job.workload);
    w.member("config", r.job.config.name);
    w.member("scheme", r.job.config.opts.profile.scheme);
    w.member("backend", r.job.config.opts.profile.backend);
    w.member("fingerprint", r.job.config.fingerprint());
    w.member("seed", r.job.seed);
    w.member("size", r.job.size);
    w.member("ok", r.ok);
    if (!r.ok) {
      w.member("error", r.error);
      if (!r.lint.empty()) {
        w.key("lint").begin_array();
        for (const auto& f : r.lint) finding_to_json(f, w);
        w.end_array();
      }
    } else {
      w.key("vanilla").begin_object();
      w.member("cycles", r.m.vanilla_cycles);
      w.member("text_bytes", r.m.vanilla_text_bytes);
      w.end_object();
      w.key("sofia").begin_object();
      w.member("cycles", r.m.sofia_cycles);
      w.member("text_bytes", r.m.sofia_text_bytes);
      w.member("nops", r.m.sofia_stats.nops);
      w.member("ctr_ops", r.m.sofia_stats.ctr_ops);
      w.member("cbc_ops", r.m.sofia_stats.cbc_ops);
      w.member("icache_misses", r.m.sofia_stats.icache_misses);
      w.end_object();
      w.key("overhead").begin_object();
      w.member("size_ratio", r.m.size_ratio());
      w.member("cycles_pct", r.m.cycle_overhead_pct());
      w.member("time_pct", r.m.time_overhead_pct(model, r.job.config.unroll_cycles));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

std::string merge_json(const std::vector<std::string>& documents) {
  const auto parsed =
      parse_merge_inputs(documents, kSchema, {"sweep", "job_count"});
  const std::string sweep_name = parsed[0].string_at("sweep", "merge");
  const std::uint64_t total = parsed[0].uint_at("job_count", "merge");

  // As many records as job_count says, checked before anything is sized by
  // it: then no index out of range and none twice means none is missing.
  std::uint64_t records = 0;
  for (std::size_t d = 0; d < parsed.size(); ++d) {
    const auto label = "merge: document " + std::to_string(d);
    records += parsed[d].array_at("jobs", label).size();
  }
  if (records < total)
    throw Error("merge: " + std::to_string(total - records) + " of " +
                std::to_string(total) + " job record(s) are missing from "
                "the inputs");
  if (records > total)
    throw Error("merge: the inputs hold " + std::to_string(records) +
                " job record(s) for job_count " + std::to_string(total));

  std::vector<const json::Value*> by_index(total, nullptr);
  for (const auto& doc : parsed) {
    for (const auto& job : doc.find("jobs")->array) {
      const std::uint64_t i = job.uint_at("index", "merge: job record");
      if (i >= total)
        throw Error("merge: job index " + std::to_string(i) +
                    " out of range for job_count " + std::to_string(total));
      if (by_index[i] != nullptr)
        throw Error("merge: job index " + std::to_string(i) +
                    " appears in more than one document");
      by_index[i] = &job;
    }
  }

  // Re-emit the canonical unsharded document: identical member order and
  // number text to what to_json() writes, so merged == unsharded, byte for
  // byte.
  json::Writer w(2);
  w.begin_object();
  w.member("schema", kSchema);
  w.member("sweep", sweep_name);
  w.member("job_count", total);
  w.key("jobs").begin_array();
  for (const auto* job : by_index) job->write(w);
  w.end_array();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

// ---------------------------------------------------------------------------
// Built-in matrices
// ---------------------------------------------------------------------------

namespace {

SweepSpec suite_overhead_matrix() {
  SweepSpec spec;
  spec.name = "suite-overhead";
  spec.configs = {paper_default_config()};
  return spec;
}

SweepSpec granularity_matrix() {
  SweepSpec spec;
  spec.name = "granularity";
  spec.size_divisor = 2;  // the ablation's historical working set
  const struct {
    const char* name;
    crypto::Granularity gran;
    bool alternate;
  } points[] = {
      {"per-pair alternating (paper)", crypto::Granularity::kPerPair, true},
      {"per-pair demand-driven", crypto::Granularity::kPerPair, false},
      {"per-word alternating (Alg.1)", crypto::Granularity::kPerWord, true},
      {"per-word demand-driven", crypto::Granularity::kPerWord, false},
  };
  for (const auto& p : points) {
    ConfigPoint c = paper_default_config();
    c.name = p.name;
    c.opts.profile.granularity = p.gran;
    c.opts.config.cipher.alternate = p.alternate;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec blockpolicy_matrix() {
  SweepSpec spec;
  spec.name = "blockpolicy";
  spec.size_divisor = 2;
  ConfigPoint paper = paper_default_config();
  paper.name = "8-word block, stores>=4 (paper)";
  ConfigPoint small = paper_default_config();
  small.name = "6-word block, unrestricted (Fig.5)";
  small.opts.profile.policy = xform::BlockPolicy::small_unrestricted();
  spec.configs = {paper, small};
  return spec;
}

SweepSpec cipher_matrix() {
  SweepSpec spec;
  spec.name = "cipher";
  spec.size_divisor = 2;
  ConfigPoint rect = paper_default_config();
  rect.name = "RECTANGLE-80 (paper)";
  ConfigPoint speck = paper_default_config();
  speck.name = "SPECK-64/128";
  speck.opts.profile.cipher = crypto::CipherKind::kSpeck64_128;
  spec.configs = {rect, speck};
  return spec;
}

SweepSpec icache_matrix() {
  SweepSpec spec;
  spec.name = "icache";
  spec.workloads = {"adpcm_encode", "adpcm_decode"};
  spec.size_override = 1024;
  for (const std::uint32_t bytes : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    ConfigPoint c = paper_default_config();
    c.name = std::to_string(bytes) + " B I-cache";
    c.opts.config.icache.size_bytes = bytes;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec unroll_matrix() {
  SweepSpec spec;
  spec.name = "unroll";
  spec.workloads = {"adpcm_encode"};
  spec.size_override = 4096;
  for (const int unroll : {1, 2, 4, 7, 13, 26}) {
    ConfigPoint c = paper_default_config();
    c.name = std::to_string(unroll) + "-cycle cipher" +
             (unroll == 2 ? " (paper)" : "");
    c.unroll_cycles = unroll;
    c.opts.config.cipher.latency = static_cast<std::uint32_t>(unroll);
    // Deep (many-cycle) cipher datapaths are iterative, not pipelined.
    c.opts.config.cipher.pipelined = unroll <= 2;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec scheme_matrix() {
  SweepSpec spec;
  spec.name = "scheme";
  spec.size_divisor = 2;
  for (const auto& entry : scheme::scheme_registry()) {
    for (const auto kind :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      ConfigPoint c = paper_default_config();
      c.name = std::string(entry.name) + " / " +
               std::string(crypto::to_string(kind)) +
               (entry.name == scheme::kDefaultScheme &&
                        kind == crypto::CipherKind::kRectangle80
                    ? " (paper)"
                    : "");
      c.opts.profile.scheme = std::string(entry.name);
      c.opts.profile.cipher = kind;
      spec.configs.push_back(std::move(c));
    }
  }
  return spec;
}

using MatrixFn = SweepSpec (*)();

const std::vector<std::pair<std::string, MatrixFn>>& matrix_registry() {
  static const std::vector<std::pair<std::string, MatrixFn>> registry = {
      {"suite-overhead", suite_overhead_matrix},
      {"granularity", granularity_matrix},
      {"blockpolicy", blockpolicy_matrix},
      {"cipher", cipher_matrix},
      {"scheme", scheme_matrix},
      {"icache", icache_matrix},
      {"unroll", unroll_matrix},
  };
  return registry;
}

}  // namespace

const std::vector<std::string>& matrix_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, fn] : matrix_registry()) out.push_back(name);
    return out;
  }();
  return names;
}

SweepSpec matrix(std::string_view name) {
  for (const auto& [reg_name, fn] : matrix_registry())
    if (reg_name == name) return fn();
  throw Error("unknown sweep matrix '" + std::string(name) +
              "' (see sofia_sweep --list)");
}

SweepSpec smoke(SweepSpec spec) {
  spec.name += "-smoke";
  spec.workloads = {"fib", "crc32", "bitcount"};
  spec.size_override = 0;
  spec.size_divisor = 16;
  return spec;
}

SweepSpec with_backend(SweepSpec spec, std::string_view backend) {
  const std::string validated = pipeline::DeviceProfile::parse_backend(backend);
  for (auto& config : spec.configs) config.opts.profile.backend = validated;
  return spec;
}

SweepSpec with_scheme(SweepSpec spec, std::string_view scheme) {
  const std::string validated = pipeline::DeviceProfile::parse_scheme(scheme);
  for (auto& config : spec.configs) config.opts.profile.scheme = validated;
  return spec;
}

}  // namespace sofia::driver
