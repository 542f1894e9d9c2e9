#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "assembler/image_io.hpp"
#include "driver/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "workloads/workloads.hpp"

namespace sofia::campaign {

namespace {

// The built-in victim: a loop of calls (mux-entry blocks), a jump-form
// function-pointer dispatch (devirtualized under non-gating schemes, a
// live gated jalr — and retarget surface — under flta), and observable
// stores: enough block variety that every mutator kind lands on live
// structure.
constexpr char kBuiltinVictim[] = R"(
main:
  li r1, 0
  li r2, 12
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r4, table
  lw r5, 0(r4)
  .targets inc, dec
  jr r5
join:
  la r3, out
  sw r1, 0(r3)
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
inc:
  addi r1, r1, 1
  j join
dec:
  addi r1, r1, -1
  j join
.data
table: .word inc, dec
out: .word 0
)";

/// Tampered runs can loop on garbage; every trial gets a bounded budget.
constexpr std::uint64_t kTrialBudget = 10'000'000;

}  // namespace

std::string CellSpec::label() const {
  std::string out = scheme;
  out += '/';
  out += crypto::to_string(cipher);
  out += '/';
  out += crypto::to_string(granularity);
  return out;
}

CampaignSpec default_campaign() {
  CampaignSpec spec;
  for (const auto& entry : scheme::scheme_registry()) {
    const bool uses_gran = entry.get().traits().uses_granularity;
    for (const auto cipher :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      for (const auto gran :
           {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord}) {
        // A scheme that ignores the granularity axis seals identical bytes
        // for both values — one cell covers it.
        if (gran == crypto::Granularity::kPerWord && !uses_gran) continue;
        spec.cells.push_back(
            CellSpec{std::string(entry.name), cipher, gran});
      }
    }
  }
  return spec;
}

CampaignSpec smoke(CampaignSpec spec) {
  spec.name += "-smoke";
  std::vector<CellSpec> kept;
  for (const auto& cell : spec.cells) {
    const bool seen = std::any_of(
        kept.begin(), kept.end(),
        [&](const CellSpec& k) { return k.scheme == cell.scheme; });
    if (!seen) kept.push_back(cell);
  }
  spec.cells = std::move(kept);
  return spec;
}

std::string_view to_string(TrialClass cls) {
  switch (cls) {
    case TrialClass::kDetected: return "detected";
    case TrialClass::kHarmless: return "harmless";
    case TrialClass::kEscaped: return "escaped";
  }
  return "?";
}

TrialClass classify(const sim::RunResult& run,
                    const std::string& clean_output) {
  if (run.status == sim::RunResult::Status::kReset) return TrialClass::kDetected;
  if (run.ok() && run.output == clean_output) return TrialClass::kHarmless;
  return TrialClass::kEscaped;
}

MutationRecord minimize(
    const MutationRecord& record,
    const std::function<TrialClass(const MutationRecord&)>& trial) {
  MutationRecord current = record;
  for (std::size_t i = 0; i < current.size();) {
    if (current.size() == 1) break;  // already minimal; never try the empty record
    MutationRecord candidate;
    candidate.reserve(current.size() - 1);
    for (std::size_t j = 0; j < current.size(); ++j)
      if (j != i) candidate.push_back(current[j]);
    if (trial(candidate) == TrialClass::kEscaped) {
      current = std::move(candidate);  // the next element shifted into slot i
    } else {
      ++i;
    }
  }
  return current;
}

double CellResult::detection_rate() const {
  const std::uint64_t effective = detected + escaped;
  if (effective == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(effective);
}

std::uint64_t CampaignResult::jobs_run() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells) total += cell.jobs;
  return total;
}

bool CampaignResult::authenticated_clean() const {
  return std::all_of(cells.begin(), cells.end(), [](const CellResult& c) {
    return !c.authenticated || c.escapes.empty();
  });
}

// ---------------------------------------------------------------------------
// Shared JSON helpers (the shard merge and the result-cache payload codec)
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSchema = "sofia-attack-campaign-v1";

void record_to_json(const MutationRecord& record, json::Writer& w) {
  w.begin_array();
  for (const Mutation& m : record) to_json(m, w);
  w.end_array();
}

crypto::Granularity parse_granularity(const std::string& name) {
  for (const auto g :
       {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord})
    if (crypto::to_string(g) == name) return g;
  throw Error("merge: unknown granularity '" + name + "'");
}

sim::ResetCause parse_cause(const std::string& name) {
  for (std::size_t i = 0; i < kResetCauseCount; ++i)
    if (sim::to_string(static_cast<sim::ResetCause>(i)) == name)
      return static_cast<sim::ResetCause>(i);
  throw Error("merge: unknown reset cause '" + name + "'");
}

MutationRecord record_at(const json::Value& v, std::string_view key,
                         std::string_view context) {
  MutationRecord record;
  for (const auto& m : v.array_at(key, context))
    record.push_back(mutation_from_json(m));
  return record;
}

void escape_to_json(const EscapeRecord& e, json::Writer& w) {
  w.begin_object();
  w.member("job", e.job);
  w.member("status", e.status);
  w.member("output_clean", e.output_clean);
  w.key("mutations");
  record_to_json(e.applied, w);
  w.key("minimized");
  record_to_json(e.minimized, w);
  w.key("lint").begin_array();
  for (const verify::Rule rule : e.lint) w.value(verify::to_string(rule));
  w.end_array();
  w.end_object();
}

EscapeRecord escape_from_json(const json::Value& v, std::string_view context) {
  EscapeRecord e;
  e.job = v.uint_at("job", context);
  e.status = v.string_at("status", context);
  e.output_clean = v.bool_at("output_clean", context);
  e.applied = record_at(v, "mutations", context);
  e.minimized = record_at(v, "minimized", context);
  for (const auto& rule : v.array_at("lint", context))
    e.lint.push_back(verify::parse_rule(rule.as_string("lint")));
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// One matrix cell's prepared attack surface: the victim transformed once,
/// the donor build for cross-version splices, the clean-run baseline and
/// the static-lint reference. All trial-time access is const.
struct Fixture {
  std::unique_ptr<pipeline::Pipeline> session;
  assembler::LoadImage base_image;
  std::string clean_output;
  verify::ProgramModel model;
  verify::DeviceSpec device_spec;
  assembler::LoadImage donor;
  ImageGeometry geometry;
  sim::SimConfig base_config;
  /// Digest over the cell's whole attack surface (profile fingerprint,
  /// base + donor image bytes, canonical SimConfig encoding, campaign
  /// seed) — the per-trial cache key is (this, global job index).
  std::string cache_digest;

  /// Built per call (never stored): a stored donor pointer would dangle
  /// the moment the fixture moves into its slot.
  ApplyContext ctx() const { return {geometry.words_per_block, &donor}; }
};

pipeline::DeviceProfile cell_profile(const CampaignSpec& spec,
                                     const CellSpec& cell) {
  auto profile = pipeline::DeviceProfile::from_seed(cell.cipher, spec.seed);
  profile.granularity = cell.granularity;
  profile.scheme = pipeline::DeviceProfile::parse_scheme(cell.scheme);
  profile.backend = pipeline::DeviceProfile::parse_backend(spec.backend);
  return profile;
}

std::unique_ptr<pipeline::Pipeline> victim_session(
    const CampaignSpec& spec, const pipeline::DeviceProfile& profile,
    const std::string& name) {
  if (spec.workload.empty()) {
    return std::make_unique<pipeline::Pipeline>(
        pipeline::Pipeline::from_source(kBuiltinVictim, profile, name));
  }
  const auto& wl = workloads::workload(spec.workload);
  const std::uint32_t size = spec.size != 0 ? spec.size : wl.default_size;
  return std::make_unique<pipeline::Pipeline>(
      pipeline::Pipeline::from_workload(wl, spec.seed, size, profile));
}

Fixture make_fixture(const CampaignSpec& spec, const CellSpec& cell) {
  Fixture fx;
  const auto profile = cell_profile(spec, cell);
  fx.session = victim_session(spec, profile, "campaign-victim");
  sim::SimConfig config;
  config.max_cycles = kTrialBudget;
  fx.session->set_sim_config(config);

  fx.base_image = fx.session->hardened().image;
  const auto& clean = fx.session->run();
  if (!clean.ok())
    throw Error("campaign[" + cell.label() + "]: clean run failed: " +
                std::string(to_string(clean.status)));
  fx.clean_output = clean.output;
  fx.model = verify::model_of(fx.session->hardened());
  fx.device_spec = fx.session->device_spec();

  // The donor: the same program sealed under another version nonce (the
  // cross-version replay's ingredient). Built through its own session so
  // the toolchain stages stay byte-faithful to a real rollout.
  auto donor_profile = profile;
  donor_profile.omega_override = spec.donor_omega;
  auto donor_session = victim_session(spec, donor_profile, "campaign-donor");
  fx.donor = donor_session->hardened().image;

  fx.geometry.text_words = static_cast<std::uint32_t>(fx.base_image.text.size());
  fx.geometry.words_per_block = profile.policy.words_per_block;
  fx.geometry.text_base = fx.base_image.text_base;
  // The retarget surface: the union of every declared indirect target set,
  // and the aligned data words initially holding one of those addresses
  // (the dispatch slots a surviving jalr reads its target from). Both stay
  // empty under schemes that devirtualize indirect jumps.
  std::vector<std::uint32_t> targets;
  for (const auto& blk : fx.model.blocks)
    targets.insert(targets.end(), blk.jalr_targets.begin(),
                   blk.jalr_targets.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  fx.geometry.indirect_targets = std::move(targets);
  if (!fx.geometry.indirect_targets.empty()) {
    const auto& data = fx.base_image.data;
    for (std::uint32_t off = 0; off + 4 <= data.size(); off += 4) {
      std::uint32_t value = 0;
      for (std::uint32_t j = 0; j < 4; ++j)
        value |= static_cast<std::uint32_t>(data[off + j]) << (8 * j);
      if (std::binary_search(fx.geometry.indirect_targets.begin(),
                             fx.geometry.indirect_targets.end(), value))
        fx.geometry.dispatch_slots.push_back(off);
    }
  }
  fx.base_config = fx.session->sim_config();

  cache::KeyBuilder kb("sofia-cache-key-v1/campaign-fixture");
  kb.field("profile", profile.fingerprint());
  kb.field("base_image", assembler::serialize_image(fx.base_image));
  kb.field("donor", assembler::serialize_image(fx.donor));
  kb.field("config",
           sim::encode_config(fx.session->effective_sim_config()));
  kb.field("seed", spec.seed);
  fx.cache_digest = cache::to_hex(kb.finish());
  return fx;
}

/// Apply a record to fresh copies and execute (the one trial primitive the
/// classifier, the minimizer and the replay all share).
sim::RunResult execute(const Fixture& fx, const MutationRecord& record) {
  auto image = fx.base_image;
  sim::SimConfig config = fx.base_config;
  apply(record, image, config, fx.ctx());
  return fx.session->run_image(image, config);
}

/// One trial's folded outcome (index-owned slot in the pool).
struct Trial {
  TrialClass cls = TrialClass::kHarmless;
  sim::ResetCause cause = sim::ResetCause::kNone;
  std::uint64_t insts = 0;
  MutationRecord record;
  EscapeRecord escape;     ///< valid when cls == kEscaped
  bool from_cache = false;  ///< served without executing (not in the JSON)
};

// ---- result-cache payload codec -------------------------------------------

constexpr std::string_view kTrialKind = "campaign-trial";
constexpr std::string_view kTrialPayloadSchema =
    "sofia-cache-campaign-trial-v1";

std::string encode_trial_payload(const Trial& t) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", kTrialPayloadSchema);
  w.member("cls", to_string(t.cls));
  w.member("cause", sim::to_string(t.cause));
  w.member("insts", t.insts);
  w.key("record");
  record_to_json(t.record, w);
  if (t.cls == TrialClass::kEscaped) {
    w.key("escape");
    escape_to_json(t.escape, w);
  }
  w.end_object();
  return w.str();
}

TrialClass parse_class(const std::string& name) {
  for (const auto cls : {TrialClass::kDetected, TrialClass::kHarmless,
                         TrialClass::kEscaped})
    if (to_string(cls) == name) return cls;
  throw Error("cache payload: unknown trial class '" + name + "'");
}

/// Decode a cached trial; returns false (t untouched) on any mismatch, so
/// a stale or foreign payload degrades to a miss, never a crash.
bool decode_trial_payload(const std::string& payload, Trial& t) {
  try {
    const json::Value doc = json::parse(payload);
    const std::string_view label = "cached trial";
    if (doc.string_at("schema", label) != kTrialPayloadSchema) return false;
    Trial out;
    out.cls = parse_class(doc.string_at("cls", label));
    out.cause = parse_cause(doc.string_at("cause", label));
    out.insts = doc.uint_at("insts", label);
    out.record = record_at(doc, "record", label);
    if (out.cls == TrialClass::kEscaped)
      out.escape = escape_from_json(doc.at("escape", label), label);
    t = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Generate, execute and classify one trial into `t`. A trial-level failure
/// (replay error, backend transport loss) is an escape with the error as
/// its status — loud in the document, never sinking the campaign — and
/// returns false: environmental failures must retry, not be cached.
bool execute_trial(const Fixture& fx, std::uint64_t job, const Rng& base,
                   Trial& t) {
  try {
    Rng rng = base.fork(job);
    t.record = generate_record(rng, fx.geometry);
    const auto run = execute(fx, t.record);
    t.cls = classify(run, fx.clean_output);
    t.cause = run.reset.cause;
    t.insts = run.stats.insts;
    if (t.cls == TrialClass::kEscaped) {
      t.escape.job = job;
      t.escape.status = std::string(to_string(run.status));
      t.escape.output_clean = run.output == fx.clean_output;
      t.escape.applied = t.record;
      t.escape.minimized = minimize(t.record, [&](const MutationRecord& r) {
        return classify(execute(fx, r), fx.clean_output);
      });
      // Static-layer attribution: which lint rules fire on the tampered
      // image (none for pure fault schedules — those are invisible offline).
      auto image = fx.base_image;
      sim::SimConfig config = fx.base_config;
      apply(t.record, image, config, fx.ctx());
      t.escape.lint =
          verify::error_rules(verify::lint(fx.model, image, fx.device_spec));
    }
    return true;
  } catch (const std::exception& e) {
    t.cls = TrialClass::kEscaped;
    t.escape.job = job;
    t.escape.status = std::string("error: ") + e.what();
    t.escape.applied = t.record;
    t.escape.minimized = t.record;
    return false;
  }
}

Trial run_trial(const Fixture& fx, std::uint64_t job, const Rng& base,
                cache::ResultStore* store) {
  Trial t;
  t.from_cache = driver::cached_job(
      store, kTrialKind, job,
      [&] {
        cache::KeyBuilder kb("sofia-cache-key-v1/campaign-trial");
        kb.field("fixture", fx.cache_digest);
        kb.field("job", job);
        return kb.finish();
      },
      [&](const std::string& payload) {
        return decode_trial_payload(payload, t);
      },
      [&] { return execute_trial(fx, job, base, t); },
      [&] { return encode_trial_payload(t); });
  return t;
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec, unsigned threads,
                            const CellProgressFn& progress,
                            driver::ShardSpec shard,
                            cache::ResultStore* store) {
  const auto jobs = driver::shard_slice(spec.total_jobs(), shard);
  if (spec.cells.empty()) throw Error("campaign: no matrix cells");
  if (spec.jobs_per_cell == 0)
    throw Error("campaign: jobs_per_cell must be >= 1");

  // Build fixtures only for cells this shard actually touches.
  std::vector<std::unique_ptr<Fixture>> fixtures(spec.cells.size());
  for (const std::uint64_t g : jobs) {
    const std::size_t cell = g / spec.jobs_per_cell;
    if (!fixtures[cell])
      fixtures[cell] = std::make_unique<Fixture>(
          make_fixture(spec, spec.cells[cell]));
  }

  CampaignResult result;
  result.spec = spec;
  result.shard = shard;

  std::vector<Trial> trials(jobs.size());
  const Rng base(spec.seed);
  const auto t0 = std::chrono::steady_clock::now();
  result.threads_used =
      driver::for_each_index(jobs.size(), threads, [&](std::size_t i) {
        const std::uint64_t g = jobs[i];
        trials[i] =
            run_trial(*fixtures[g / spec.jobs_per_cell], g, base, store);
      });
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Fold in job-index order (trials[] is already index-sorted), so tallies
  // and escape lists are independent of thread interleaving.
  result.cells.resize(spec.cells.size());
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    auto& cell = result.cells[c];
    cell.cell = spec.cells[c];
    cell.authenticated =
        scheme::get_scheme(spec.cells[c].scheme).traits().authenticated;
    cell.latency_min = ~0ull;
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    auto& cell = result.cells[jobs[i] / spec.jobs_per_cell];
    if (t.from_cache) ++result.cached_trials;
    ++cell.jobs;
    for (const Mutation& m : t.record)
      ++cell.mutations[static_cast<std::size_t>(m.kind)];
    switch (t.cls) {
      case TrialClass::kDetected:
        ++cell.detected;
        ++cell.causes[static_cast<std::size_t>(t.cause)];
        cell.latency_min = std::min(cell.latency_min, t.insts);
        cell.latency_max = std::max(cell.latency_max, t.insts);
        cell.latency_total += t.insts;
        break;
      case TrialClass::kHarmless:
        ++cell.harmless;
        break;
      case TrialClass::kEscaped:
        ++cell.escaped;
        cell.escapes.push_back(t.escape);
        break;
    }
  }
  for (auto& cell : result.cells) {
    if (cell.detected == 0) cell.latency_min = 0;
    if (progress) progress(cell);
  }
  return result;
}

// ---------------------------------------------------------------------------
// JSON document
// ---------------------------------------------------------------------------

std::string to_json(const CampaignResult& result) {
  json::Writer w(2);
  w.begin_object();
  w.member("schema", kSchema);
  w.member("campaign", result.spec.name);
  w.member("victim", result.spec.workload.empty() ? "builtin"
                                                  : result.spec.workload);
  w.member("size", result.spec.size);
  w.member("backend", result.spec.backend);
  w.member("seed", result.spec.seed);
  w.member("donor_omega",
           static_cast<std::uint64_t>(result.spec.donor_omega));
  w.member("jobs_per_cell",
           static_cast<std::uint64_t>(result.spec.jobs_per_cell));
  w.member("job_count", result.spec.total_jobs());
  if (!result.shard.is_whole()) w.member("shard", result.shard.to_string());
  w.key("cells").begin_array();
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    w.begin_object();
    w.member("index", static_cast<std::uint64_t>(c));
    w.member("scheme", cell.cell.scheme);
    w.member("cipher", crypto::to_string(cell.cell.cipher));
    w.member("granularity", crypto::to_string(cell.cell.granularity));
    w.member("authenticated", cell.authenticated);
    w.member("jobs", cell.jobs);
    w.member("detected", cell.detected);
    w.member("harmless", cell.harmless);
    w.member("escaped", cell.escaped);
    w.member("detection_rate", cell.detection_rate());
    w.key("causes").begin_object();
    for (std::size_t i = 0; i < kResetCauseCount; ++i)
      if (cell.causes[i] != 0)
        w.member(sim::to_string(static_cast<sim::ResetCause>(i)),
                 cell.causes[i]);
    w.end_object();
    w.key("mutations").begin_object();
    for (const auto& info : mutator_catalog()) {
      const auto n = cell.mutations[static_cast<std::size_t>(info.kind)];
      if (n != 0) w.member(info.name, n);
    }
    w.end_object();
    if (cell.detected != 0) {
      w.key("latency").begin_object();
      w.member("min_insts", cell.latency_min);
      w.member("max_insts", cell.latency_max);
      w.member("total_insts", cell.latency_total);
      w.member("mean_insts", static_cast<double>(cell.latency_total) /
                                 static_cast<double>(cell.detected));
      w.end_object();
    }
    w.key("escapes").begin_array();
    for (const EscapeRecord& e : cell.escapes) escape_to_json(e, w);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

// ---------------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------------

std::string merge_json(const std::vector<std::string>& documents) {
  const auto parsed = driver::parse_merge_inputs(
      documents, kSchema,
      {"campaign", "victim", "size", "backend", "seed", "donor_omega",
       "jobs_per_cell"});

  CampaignResult merged;
  auto& spec = merged.spec;
  const json::Value& head = parsed[0];
  const std::string_view head_label = "merge: document 0";
  spec.name = head.string_at("campaign", head_label);
  const auto& victim = head.string_at("victim", head_label);
  spec.workload = victim == "builtin" ? "" : victim;
  spec.size = head.narrow_uint_at<std::uint32_t>("size", head_label);
  spec.backend = head.string_at("backend", head_label);
  spec.seed = head.uint_at("seed", head_label);
  spec.donor_omega =
      head.narrow_uint_at<std::uint16_t>("donor_omega", head_label);
  spec.jobs_per_cell =
      head.narrow_uint_at<std::uint32_t>("jobs_per_cell", head_label);

  std::vector<bool> shard_seen;
  for (std::size_t d = 0; d < parsed.size(); ++d) {
    const json::Value& doc = parsed[d];
    const auto label = "merge: document " + std::to_string(d);
    const auto shard = driver::ShardSpec::parse(doc.string_at("shard", label));
    if (d == 0) {
      if (documents.size() != shard.count)
        throw Error("merge: got " + std::to_string(documents.size()) +
                    " document(s) for " + std::to_string(shard.count) +
                    " shard(s)");
      shard_seen.assign(shard.count, false);
    } else if (shard.count != shard_seen.size()) {
      throw Error(label + " disagrees on the shard count");
    }
    if (shard_seen[shard.index])
      throw Error("merge: shard " + std::to_string(shard.index) +
                  " appears in more than one document");
    shard_seen[shard.index] = true;

    const auto& cells = doc.array_at("cells", label);
    if (d == 0)
      merged.cells.resize(cells.size());
    else if (cells.size() != merged.cells.size())
      throw Error(label + " disagrees with document 0 on the cell count");

    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto& jc = cells[c];
      const auto cl = label + " cell " + std::to_string(c);
      CellSpec cell_spec;
      cell_spec.scheme = jc.string_at("scheme", cl);
      cell_spec.cipher =
          pipeline::DeviceProfile::parse_cipher(jc.string_at("cipher", cl));
      cell_spec.granularity =
          parse_granularity(jc.string_at("granularity", cl));
      auto& out = merged.cells[c];
      if (d == 0) {
        spec.cells.push_back(cell_spec);
        out.cell = cell_spec;
        out.authenticated = jc.bool_at("authenticated", cl);
        out.latency_min = ~0ull;
      } else if (cell_spec.scheme != out.cell.scheme ||
                 cell_spec.cipher != out.cell.cipher ||
                 cell_spec.granularity != out.cell.granularity) {
        throw Error(cl + " disagrees on the cell axes");
      }
      out.jobs += jc.uint_at("jobs", cl);
      const std::uint64_t detected = jc.uint_at("detected", cl);
      out.detected += detected;
      out.harmless += jc.uint_at("harmless", cl);
      out.escaped += jc.uint_at("escaped", cl);
      for (const auto& [name, count] : jc.at("causes", cl).object)
        out.causes[static_cast<std::size_t>(parse_cause(name))] +=
            count.as_uint("causes");
      for (const auto& [name, count] : jc.at("mutations", cl).object)
        out.mutations[static_cast<std::size_t>(parse_mutation_kind(name))] +=
            count.as_uint("mutations");
      if (detected != 0) {
        const auto& lat = jc.at("latency", cl);
        out.latency_min =
            std::min(out.latency_min, lat.uint_at("min_insts", cl));
        out.latency_max =
            std::max(out.latency_max, lat.uint_at("max_insts", cl));
        out.latency_total += lat.uint_at("total_insts", cl);
      }
      for (const auto& je : jc.array_at("escapes", cl))
        out.escapes.push_back(escape_from_json(je, cl));
    }
  }

  for (auto& cell : merged.cells) {
    if (cell.detected == 0) cell.latency_min = 0;
    if (cell.jobs != merged.spec.jobs_per_cell)
      throw Error("merge: cell '" + cell.cell.label() + "' sums to " +
                  std::to_string(cell.jobs) + " job(s), expected " +
                  std::to_string(merged.spec.jobs_per_cell));
    std::sort(cell.escapes.begin(), cell.escapes.end(),
              [](const EscapeRecord& a, const EscapeRecord& b) {
                return a.job < b.job;
              });
  }

  merged.shard = driver::ShardSpec{};  // the canonical unsharded document
  return to_json(merged);
}

}  // namespace sofia::campaign
