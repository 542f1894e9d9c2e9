#include "driver/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "assembler/image_io.hpp"
#include "driver/pool.hpp"
#include "scheme/scheme.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia::driver {

namespace {

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

void ShardSpec::validate() const {
  if (count == 0) throw Error("shard: count must be >= 1");
  if (index >= count)
    throw Error("shard: index " + std::to_string(index) +
                " out of range for " + std::to_string(count) + " shard(s)");
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  const auto parse_num = [&](std::string_view part) -> std::uint32_t {
    std::uint64_t v = 0;
    if (!cli::parse_number(part, v) || v > 0xFFFFFFFFull)
      throw Error("shard: expected K/N with K and N in [0, 2^32), got '" +
                  std::string(text) + "'");
    return static_cast<std::uint32_t>(v);
  };
  if (slash == std::string_view::npos)
    throw Error("shard: expected K/N syntax, got '" + std::string(text) + "'");
  ShardSpec shard;
  shard.index = parse_num(text.substr(0, slash));
  shard.count = parse_num(text.substr(slash + 1));
  shard.validate();
  return shard;
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

void stats_to_json(const sim::SimStats& s, json::Writer& w) {
  w.begin_object();
  w.member("cycles", s.cycles);
  w.member("insts", s.insts);
  w.member("nops", s.nops);
  w.member("loads", s.loads);
  w.member("stores", s.stores);
  w.member("branches", s.branches);
  w.member("taken", s.taken);
  w.member("icache_hits", s.icache_hits);
  w.member("icache_misses", s.icache_misses);
  w.member("fetch_words", s.fetch_words);
  w.member("mac_words", s.mac_words);
  w.member("ctr_ops", s.ctr_ops);
  w.member("cbc_ops", s.cbc_ops);
  w.member("blocks_fetched", s.blocks_fetched);
  w.member("mac_verifications", s.mac_verifications);
  w.member("store_gate_stalls", s.store_gate_stalls);
  w.member("queue_empty_cycles", s.queue_empty_cycles);
  w.member("exec_stall_cycles", s.exec_stall_cycles);
  w.end_object();
}

std::uint64_t req_uint(const json::Value& v, std::string_view key) {
  const auto* m = v.find(key);
  if (m == nullptr)
    throw Error("cache payload: missing '" + std::string(key) + "'");
  return m->as_uint(key);
}

const std::string& req_string(const json::Value& v, std::string_view key) {
  const auto* m = v.find(key);
  if (m == nullptr)
    throw Error("cache payload: missing '" + std::string(key) + "'");
  return m->as_string(key);
}

std::int64_t req_int(const json::Value& v, std::string_view key) {
  const auto* m = v.find(key);
  if (m == nullptr || m->kind != json::Value::Kind::kNumber)
    throw Error("cache payload: missing integer '" + std::string(key) + "'");
  return std::stoll(m->number);
}

sim::SimStats stats_from_json(const json::Value& v) {
  sim::SimStats s;
  s.cycles = req_uint(v, "cycles");
  s.insts = req_uint(v, "insts");
  s.nops = req_uint(v, "nops");
  s.loads = req_uint(v, "loads");
  s.stores = req_uint(v, "stores");
  s.branches = req_uint(v, "branches");
  s.taken = req_uint(v, "taken");
  s.icache_hits = req_uint(v, "icache_hits");
  s.icache_misses = req_uint(v, "icache_misses");
  s.fetch_words = req_uint(v, "fetch_words");
  s.mac_words = req_uint(v, "mac_words");
  s.ctr_ops = req_uint(v, "ctr_ops");
  s.cbc_ops = req_uint(v, "cbc_ops");
  s.blocks_fetched = req_uint(v, "blocks_fetched");
  s.mac_verifications = req_uint(v, "mac_verifications");
  s.store_gate_stalls = req_uint(v, "store_gate_stalls");
  s.queue_empty_cycles = req_uint(v, "queue_empty_cycles");
  s.exec_stall_cycles = req_uint(v, "exec_stall_cycles");
  return s;
}

std::string encode_job_payload(const JobResult& r) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", kJobPayloadSchema);
  w.member("ok", r.ok);
  if (!r.ok) {
    w.member("error", r.error);
    w.key("lint").begin_array();
    for (const auto& f : r.lint) {
      w.begin_object();
      w.member("rule", verify::to_string(f.rule));
      w.member("severity", verify::to_string(f.severity));
      w.member("block", f.block);
      w.member("insn", f.insn);
      w.member("message", f.message);
      w.end_object();
    }
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

verify::Rule parse_rule(const std::string& name) {
  if (const auto* info = verify::find_rule(name)) return info->rule;
  throw Error("cache payload: unknown lint rule '" + name + "'");
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
    const auto* schema = doc.find("schema");
    if (schema == nullptr || schema->as_string("schema") != kJobPayloadSchema)
      return false;
    JobResult out;
    out.job = r.job;
    const auto* ok = doc.find("ok");
    if (ok == nullptr || ok->kind != json::Value::Kind::kBool) return false;
    out.ok = ok->boolean;
    if (!out.ok) {
      out.error = req_string(doc, "error");
      const auto* lint = doc.find("lint");
      if (lint == nullptr) return false;
      for (const auto& jf : lint->as_array("lint")) {
        verify::Finding f;
        f.rule = parse_rule(req_string(jf, "rule"));
        f.severity = parse_severity(req_string(jf, "severity"));
        f.block = req_int(jf, "block");
        f.insn = req_int(jf, "insn");
        f.message = req_string(jf, "message");
        out.lint.push_back(std::move(f));
      }
    } else {
      const auto* m = doc.find("m");
      if (m == nullptr) return false;
      out.m.name = req_string(*m, "name");
      out.m.vanilla_text_bytes =
          static_cast<std::uint32_t>(req_uint(*m, "vanilla_text_bytes"));
      out.m.sofia_text_bytes =
          static_cast<std::uint32_t>(req_uint(*m, "sofia_text_bytes"));
      out.m.vanilla_cycles = req_uint(*m, "vanilla_cycles");
      out.m.sofia_cycles = req_uint(*m, "sofia_cycles");
      const auto* vs = m->find("vanilla_stats");
      const auto* ss = m->find("sofia_stats");
      if (vs == nullptr || ss == nullptr) return false;
      out.m.vanilla_stats = stats_from_json(*vs);
      out.m.sofia_stats = stats_from_json(*ss);
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

JobResult run_job(const JobSpec& job, cache::ResultStore* store) {
  JobResult result;
  result.job = job;
  cache::Key key{};
  bool have_key = false;
  try {
    const auto& wl = workloads::workload(job.workload);
    auto p = pipeline::Pipeline::from_workload(wl, job.seed, job.size,
                                               job.config.opts.profile);
    p.set_sim_config(job.config.opts.config);
    p.set_memory_layout(job.config.opts.mem);
    if (store != nullptr) {
      // Key derivation runs the transform (cheap) but neither device run
      // (the expensive part a hit skips).
      key = job_key(job, p);
      have_key = true;
      if (auto payload = store->load(key, kJobKind)) {
        if (decode_job_payload(*payload, result)) {
          result.from_cache = true;
          return result;
        }
        store->warn("cache: sweep-job payload for job " +
                    std::to_string(job.index) +
                    " is undecodable; re-executing");
      }
    }
    if (job.lint) {
      // Lint prefilter: verify the hardened image statically and fail the
      // job before either device run; the same session then measures, so
      // the transform is not repeated.
      const verify::Report report = p.lint();
      if (!report.clean()) {
        for (const auto& f : report.findings)
          if (f.severity == verify::Severity::kError)
            result.lint.push_back(f);
        result.error =
            "lint: " + std::to_string(result.lint.size()) +
            " error-severity finding(s), first: " +
            std::string(verify::to_string(result.lint.front().rule));
        if (store != nullptr && have_key)
          store->store(key, kJobKind, encode_job_payload(result));
        return result;
      }
    }
    result.m = p.measure();
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  // Measurements AND deterministic failures (functional mismatches, lint)
  // are cacheable; only jobs that died before a key existed are not.
  if (store != nullptr && have_key)
    store->store(key, kJobKind, encode_job_payload(result));
  return result;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, unsigned threads,
                      const ProgressFn& progress, ShardSpec shard,
                      cache::ResultStore* store) {
  shard.validate();
  const auto all_jobs = expand_jobs(spec);
  std::vector<JobSpec> jobs;
  jobs.reserve(all_jobs.size());
  for (const auto& job : all_jobs)
    if (job.index % shard.count == shard.index) jobs.push_back(job);

  SweepResult result;
  result.sweep_name = spec.name;
  result.total_jobs = all_jobs.size();
  result.shard = shard;
  result.jobs.resize(jobs.size());

  const auto t0 = std::chrono::steady_clock::now();

  // Each worker claims the next unclaimed job index and writes its result
  // into the job's own slot (driver::for_each_index), so the output order
  // (and the JSON rendered from it) never depends on thread interleaving.
  std::mutex progress_mutex;
  result.threads_used =
      for_each_index(jobs.size(), threads, [&](std::size_t i) {
        result.jobs[i] = run_job(jobs[i], store);
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
  w.member("schema", "sofia-sweep-v5");
  w.member("sweep", result.sweep_name);
  w.member("job_count", static_cast<std::uint64_t>(
                            result.total_jobs ? result.total_jobs
                                              : result.jobs.size()));
  if (!result.shard.is_whole())
    w.member("shard", std::to_string(result.shard.index) + "/" +
                          std::to_string(result.shard.count));
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
        for (const auto& f : r.lint) {
          w.begin_object();
          w.member("rule", verify::to_string(f.rule));
          w.member("severity", verify::to_string(f.severity));
          w.member("block", static_cast<std::int64_t>(f.block));
          w.member("insn", static_cast<std::int64_t>(f.insn));
          w.member("message", f.message);
          w.end_object();
        }
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
  if (documents.empty()) throw Error("merge: no input documents");

  std::string sweep_name;
  std::uint64_t total = 0;
  std::vector<const json::Value*> by_index;
  // Keep the parsed trees alive while by_index points into them.
  std::vector<json::Value> parsed;
  parsed.reserve(documents.size());

  for (std::size_t d = 0; d < documents.size(); ++d) {
    parsed.push_back(json::parse(documents[d]));
    const auto& doc = parsed.back();
    const auto label = "document " + std::to_string(d);
    const auto* schema = doc.find("schema");
    if (schema == nullptr || schema->as_string("schema") != "sofia-sweep-v5")
      throw Error("merge: " + label + " is not a sofia-sweep-v5 document");
    const auto* sweep = doc.find("sweep");
    const auto* count = doc.find("job_count");
    const auto* jobs = doc.find("jobs");
    if (sweep == nullptr || count == nullptr || jobs == nullptr)
      throw Error("merge: " + label + " is missing sweep/job_count/jobs");
    if (d == 0) {
      sweep_name = sweep->as_string("sweep");
      total = count->as_uint("job_count");
      by_index.assign(total, nullptr);
    } else {
      if (sweep->as_string("sweep") != sweep_name)
        throw Error("merge: " + label + " is from sweep '" +
                    sweep->as_string("sweep") + "', expected '" + sweep_name +
                    "'");
      if (count->as_uint("job_count") != total)
        throw Error("merge: " + label + " disagrees on job_count");
    }
    for (const auto& job : jobs->as_array("jobs")) {
      const auto* index = job.find("index");
      if (index == nullptr) throw Error("merge: job record without index");
      const std::uint64_t i = index->as_uint("index");
      if (i >= total)
        throw Error("merge: job index " + std::to_string(i) +
                    " out of range for job_count " + std::to_string(total));
      if (by_index[i] != nullptr)
        throw Error("merge: job index " + std::to_string(i) +
                    " appears in more than one document");
      by_index[i] = &job;
    }
  }

  for (std::uint64_t i = 0; i < total; ++i)
    if (by_index[i] == nullptr)
      throw Error("merge: job index " + std::to_string(i) +
                  " is missing from the inputs");

  // Re-emit the canonical unsharded document: identical member order and
  // number text to what to_json() writes, so merged == unsharded, byte for
  // byte.
  json::Writer w(2);
  w.begin_object();
  w.member("schema", "sofia-sweep-v5");
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
