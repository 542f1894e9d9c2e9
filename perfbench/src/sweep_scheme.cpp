// Workload sweep-scheme: cold driver::run_sweep calls over the built-in
// "scheme" matrix (every registry workload × scheme × cipher at half size,
// paper-default cycle-accurate device, lint prefilter on), each against an
// empty result store — the first pass of `sofia_sweep --lint --cache`.
// Consecutive passes use consecutive seeds starting at the workload seed.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "cache/result_store.hpp"
#include "driver/pool.hpp"
#include "driver/sweep.hpp"
#include "stages.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

using namespace sofia;
namespace fs = std::filesystem;

std::array<std::uint64_t, 18> fields(const sim::SimStats& s) {
  return {s.cycles,        s.insts,          s.nops,           s.loads,
          s.stores,        s.branches,       s.taken,          s.icache_hits,
          s.icache_misses, s.fetch_words,    s.mac_words,      s.ctr_ops,
          s.cbc_ops,       s.blocks_fetched, s.mac_verifications,
          s.store_gate_stalls, s.queue_empty_cycles, s.exec_stall_cycles};
}

bool same_measurement(const pipeline::Measurement& a, const pipeline::Measurement& b) {
  return a.vanilla_text_bytes == b.vanilla_text_bytes &&
         a.sofia_text_bytes == b.sofia_text_bytes &&
         a.vanilla_cycles == b.vanilla_cycles && a.sofia_cycles == b.sofia_cycles &&
         fields(a.vanilla_stats) == fields(b.vanilla_stats) &&
         fields(a.sofia_stats) == fields(b.sofia_stats);
}

/// The exact, paper-facing numbers of one pass.
struct SimTotals {
  sim::SimStats sofia;
  sim::SimStats vanilla;
  std::uint64_t sofia_text = 0;
  std::uint64_t vanilla_text = 0;

  void add(const pipeline::Measurement& m) {
    const sim::SimStats& s = m.sofia_stats;
    sofia.cycles += s.cycles;
    sofia.insts += s.insts;
    sofia.icache_misses += s.icache_misses;
    sofia.ctr_ops += s.ctr_ops;
    sofia.cbc_ops += s.cbc_ops;
    sofia.blocks_fetched += s.blocks_fetched;
    sofia.mac_verifications += s.mac_verifications;
    sofia.store_gate_stalls += s.store_gate_stalls;
    sofia.queue_empty_cycles += s.queue_empty_cycles;
    vanilla.cycles += m.vanilla_stats.cycles;
    sofia_text += m.sofia_text_bytes;
    vanilla_text += m.vanilla_text_bytes;
  }
  double overhead_pct() const {
    return 100.0 * (static_cast<double>(sofia.cycles) /
                        static_cast<double>(vanilla.cycles) -
                    1.0);
  }
  double text_ratio() const {
    return static_cast<double>(sofia_text) / static_cast<double>(vanilla_text);
  }
  void put(Metrics& m) const {
    const auto count = [&](const char* name, std::uint64_t v) {
      m.set(name, static_cast<double>(v), "count");
    };
    count("sim.cycles", sofia.cycles);
    count("sim.vanilla_cycles", vanilla.cycles);
    count("sim.insts", sofia.insts);
    count("sim.blocks_fetched", sofia.blocks_fetched);
    count("sim.ctr_ops", sofia.ctr_ops);
    count("sim.cbc_ops", sofia.cbc_ops);
    count("sim.mac_verifications", sofia.mac_verifications);
    count("sim.icache_misses", sofia.icache_misses);
    count("sim.queue_empty_cycles", sofia.queue_empty_cycles);
    count("sim.store_gate_stalls", sofia.store_gate_stalls);
    m.set("sim.overhead_pct", overhead_pct(), "%");
  }
};

driver::SweepSpec make_spec(const Options& opts) {
  driver::SweepSpec spec = driver::matrix("scheme");
  spec.lint = true;
  if (opts.smoke) spec = driver::smoke(std::move(spec));
  return spec;
}

cache::WarnFn warn_to_stderr() {
  return [](const std::string& message) {
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  };
}

/// One cold pass plus its checks: every job ok, and a warm pass over the
/// same store that hits every job and renders the identical document.
struct Pass {
  driver::SweepResult cold;
  double cold_s = 0;
  double warm_s = 0;
  std::string document;
  cache::Stats cache;
  std::uint64_t failed = 0;
};

Pass run_pass(const driver::SweepSpec& spec, const Options& opts,
              const fs::path& store_dir, bool inject_wrong_expected) {
  Pass pass;
  cache::ResultStore store(store_dir, warn_to_stderr());
  const auto t0 = Clock::now();
  pass.cold = driver::run_sweep(spec, opts.threads, {}, {}, &store);
  pass.cold_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const driver::SweepResult warm = driver::run_sweep(spec, opts.threads, {}, {}, &store);
  pass.warm_s = seconds_since(t1);
  pass.cache = store.stats();
  pass.document = driver::to_json(pass.cold);

  for (std::size_t i = 0; i < pass.cold.jobs.size(); ++i) {
    const auto& c = pass.cold.jobs[i];
    const auto& w = warm.jobs[i];
    pipeline::Measurement expected = c.m;
    if (inject_wrong_expected && i == 0) expected.sofia_cycles += 1;
    const bool good = c.ok && w.ok && w.from_cache && same_measurement(expected, w.m);
    if (!good) {
      ++pass.failed;
      std::fprintf(stderr, "perfbench: sweep job %zu (%s / %s) failed its check%s%s\n", i,
                   c.job.workload.c_str(), c.job.config.name.c_str(),
                   c.ok ? "" : ": ", c.error.c_str());
    }
  }
  if (pass.failed == 0 && driver::to_json(warm) != pass.document) {
    ++pass.failed;
    std::fprintf(stderr, "perfbench: warm sweep document differs from the cold one\n");
  }
  return pass;
}

void report_reference(const Pass& pass, const SimTotals& totals, std::uint64_t seed) {
  std::printf("reference pass (seed %llu, %zu jobs):\n",
              static_cast<unsigned long long>(seed), pass.cold.jobs.size());
  report("sweep_sha256", support::sha256_hex(pass.document));
  report("sim_overhead_pct", totals.overhead_pct(), "%");
  report("text_ratio", totals.text_ratio(), "ratio");
  Metrics counts;
  totals.put(counts);
  for (const auto& e : counts.entries()) report(e.name, e.value, e.unit);
  report("cache.stores", static_cast<double>(pass.cache.stored), "count");
  report("cache.hits", static_cast<double>(pass.cache.hits), "count");
  report("cache.misses", static_cast<double>(pass.cache.misses), "count");
  report("cache.failures", static_cast<double>(pass.cache.failures), "count");
}

SimTotals totals_of(const driver::SweepResult& r) {
  SimTotals t;
  for (const auto& job : r.jobs)
    if (job.ok) t.add(job.m);
  return t;
}

// ---- traced run ------------------------------------------------------------

struct TracedJob {
  bool ok = false;
  pipeline::Measurement m;
  xform::TransformStats xstats;
  std::uint32_t blocks_checked = 0;
  std::uint32_t stores_proven_safe = 0;
  std::uint64_t transfers = 0;
  double run_ms = 0;
  double vanilla_run_ms = 0;
  double rules_ms = 0;  ///< lint() minus its model and dataflow parts
};

/// The calls run_sweep's job body makes, each inside a span, then the
/// verifier and CFG probes outside the job span.
TracedJob traced_job(Tracer& tracer, const driver::JobSpec& job) {
  TracedJob out;
  const auto& wl = workloads::workload(job.workload);
  const auto& mo = job.config.opts;
  try {
    std::optional<pipeline::Pipeline> p;
    {
      auto span = tracer.span("job", static_cast<std::int64_t>(job.index));
      p.emplace(traced_session(tracer, wl, job.seed, job.size, mo.profile));
      p->set_sim_config(mo.config);
      p->set_memory_layout(mo.mem);
      { auto s = tracer.span("assembler.program"); p->program(); }
      { auto s = tracer.span("assembler.link"); p->vanilla_image(); }
      { auto s = tracer.span("xform.hardened"); p->hardened(); }
      verify::Report report;
      {
        auto s = tracer.span("verify.lint");
        report = p->lint();
        out.rules_ms = s.elapsed_ms();
      }
      if (!report.clean()) return out;
      {
        auto s = tracer.span("sim.vanilla.run");
        p->run_vanilla();
        out.vanilla_run_ms = s.elapsed_ms();
      }
      {
        auto s = tracer.span("sim.cycle.run");
        p->run();
        out.run_ms = s.elapsed_ms();
      }
      out.m = p->measure();
      out.blocks_checked = report.blocks_checked;
      out.stores_proven_safe = report.stores_proven_safe;
    }
    out.xstats = p->hardened().stats;
    out.transfers = probe_verifier(tracer, p->hardened(), out.rules_ms);
    out.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: traced job %zu failed: %s\n", job.index, e.what());
    out.ok = false;
  }
  return out;
}

/// Time the store's own load/store calls over the entries a cold pass
/// wrote (found by scanning the store), per entry.
void cache_probe(const fs::path& written, const fs::path& copy, Metrics& out,
                 std::uint64_t& failed) {
  cache::ResultStore source(written, warn_to_stderr());
  cache::ResultStore target(copy, warn_to_stderr());
  double load_us = 0;
  double store_us = 0;
  std::size_t n = 0;
  for (const auto& entry : cache::scan(written)) {
    cache::Key key{};
    for (std::size_t i = 0; i < key.size(); ++i)
      key[i] = static_cast<std::uint8_t>(std::stoul(entry.key_hex.substr(2 * i, 2), nullptr, 16));
    const auto t0 = Clock::now();
    const auto payload = source.load(key, entry.kind);
    load_us += seconds_since(t0) * 1e6;
    if (!payload) {
      ++failed;
      continue;
    }
    const auto t1 = Clock::now();
    target.store(key, entry.kind, *payload);
    store_us += seconds_since(t1) * 1e6;
    ++n;
  }
  failed += target.stats().failures;
  out.set("cache.load_us", n ? load_us / static_cast<double>(n) : 0.0, "us");
  out.set("cache.store_us", n ? store_us / static_cast<double>(n) : 0.0, "us");
}

Outcome traced_run(const driver::SweepSpec& base, const Options& opts) {
  Outcome out;
  driver::SweepSpec spec = base;
  spec.base_seed = opts.seed;

  // Untraced reference pass: the wall clock the traced pass is compared to.
  const fs::path store_dir = opts.workdir / "sweep-traced";
  const fs::path probe_dir = opts.workdir / "sweep-probe";
  Pass pass = run_pass(spec, opts, store_dir, false);
  cache_probe(store_dir, probe_dir, out.metrics, pass.failed);
  fs::remove_all(store_dir);
  fs::remove_all(probe_dir);

  // Traced pass over the same job list.
  const auto jobs = driver::expand_jobs(spec);
  std::vector<TracedJob> traced(jobs.size());
  Tracer tracer;
  const auto t0 = Clock::now();
  driver::for_each_index(jobs.size(), opts.threads,
                         [&](std::size_t i) { traced[i] = traced_job(tracer, jobs[i]); });
  const double traced_s = seconds_since(t0);

  // Render cost of the sweep document (median of several renders).
  std::vector<double> render_ms;
  for (int i = 0; i < 7; ++i) {
    const auto r0 = Clock::now();
    const std::string doc = driver::to_json(pass.cold);
    render_ms.push_back(seconds_since(r0) * 1e3);
    if (doc != pass.document) ++pass.failed;
  }

  out.attempted = jobs.size();
  out.failed = pass.failed;
  SimTotals totals;
  XformTotals xform;
  std::uint64_t blocks_checked = 0, stores_safe = 0, transfers = 0;
  double run_ms = 0, vanilla_ms = 0, rules_ms = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const TracedJob& t = traced[i];
    // The traced calls must reproduce the untraced job exactly.
    if (!t.ok || !pass.cold.jobs[i].ok || !same_measurement(t.m, pass.cold.jobs[i].m)) {
      ++out.failed;
      continue;
    }
    totals.add(t.m);
    xform.add(t.xstats);
    blocks_checked += t.blocks_checked;
    stores_safe += t.stores_proven_safe;
    transfers += t.transfers;
    run_ms += t.run_ms;
    vanilla_ms += t.vanilla_run_ms;
    rules_ms += t.rules_ms;
  }

  Metrics& m = out.metrics;
  m.set("workloads.gen_ms", tracer.mean_ms("workloads.gen"), "ms");
  m.set("assembler.ms", tracer.mean_ms("assembler.program"), "ms");
  m.set("cfg.build_ms", tracer.mean_ms("cfg.build"), "ms");
  m.set("xform.ms", tracer.mean_ms("xform.hardened"), "ms");
  xform.put(m);
  m.set("verify.model_ms", tracer.mean_ms("verify.model"), "ms");
  m.set("verify.dataflow_ms", tracer.mean_ms("verify.dataflow"), "ms");
  m.set("verify.lint_ms", rules_ms / static_cast<double>(jobs.size()), "ms");
  m.set("verify.blocks_checked", static_cast<double>(blocks_checked), "count");
  m.set("verify.stores_proven_safe", static_cast<double>(stores_safe), "count");
  m.set("verify.dataflow_transfers", static_cast<double>(transfers), "count");
  m.set("sim.cycle.run_s", run_ms / 1e3, "s");
  m.set("sim.cycle.ns_per_block_open",
        run_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, totals.sofia.blocks_fetched)),
        "ns");
  m.set("sim.cycle.ns_per_cycle",
        run_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, totals.sofia.cycles)), "ns");
  m.set("sim.vanilla.ns_per_cycle",
        vanilla_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, totals.vanilla.cycles)),
        "ns");
  totals.put(m);
  m.set("cache.stores", static_cast<double>(pass.cache.stored), "count");
  m.set("cache.hits", static_cast<double>(pass.cache.hits), "count");
  m.set("cache.misses", static_cast<double>(pass.cache.misses), "count");
  m.set("cache.failures", static_cast<double>(pass.cache.failures), "count");
  m.set("cache.warm_pass_s", pass.warm_s, "s");
  const auto job_ms = tracer.durations("job");
  double busy_ms = 0;
  for (const double d : job_ms) busy_ms += d;
  m.set("driver.busy_frac", busy_ms / (opts.threads * pass.cold_s * 1e3), "ratio");
  m.set("driver.idle_tail_s", tracer.idle_tail_s("job"), "s");
  m.set("item_p50_ms", percentile(job_ms, 50), "ms");
  m.set("item_p99_ms", percentile(job_ms, 99), "ms");
  m.set("json.sweep_render_ms", median(render_ms), "ms");

  std::printf("traced run: %zu jobs on %u threads\n", jobs.size(), opts.threads);
  report("untraced_wall_s", pass.cold_s, "s");
  report("traced_wall_s", traced_s, "s");
  report("item samples", static_cast<double>(job_ms.size()), "count");
  report_reference(pass, totals_of(pass.cold), spec.base_seed);
  std::printf("self time by span:\n");
  tracer.print_self_time_table();
  tracer.write(opts.trace_dir / ("sweep-scheme-seed" + std::to_string(opts.seed) + ".json"));

  run_layer_probes(opts, m, out.failed);
  report_adpcm_accuracy();
  return out;
}

}  // namespace

Outcome run_sweep_scheme(const Options& opts) {
  const driver::SweepSpec base = make_spec(opts);
  const std::size_t jobs_per_pass = driver::expand_jobs(base).size();
  fs::create_directories(opts.workdir);
  mark_ready();
  if (opts.setup_only) return {};
  if (opts.trace) return traced_run(base, opts);

  Outcome out;
  double timed_s = 0;
  std::uint64_t passes = 0;
  const auto loop_start = Clock::now();
  do {
    driver::SweepSpec spec = base;
    spec.base_seed = opts.seed + passes;
    const fs::path store_dir = opts.workdir / ("sweep-" + std::to_string(passes));
    const Pass pass = run_pass(spec, opts, store_dir, opts.inject_wrong_expected && passes == 0);
    fs::remove_all(store_dir);
    timed_s += pass.cold_s;
    out.attempted += pass.cold.jobs.size();
    out.failed += pass.failed;
    if (passes == 0) report_reference(pass, totals_of(pass.cold), spec.base_seed);
    ++passes;
  } while (seconds_since(loop_start) < opts.seconds);

  std::printf("timed phase: %llu cold passes x %zu jobs on %u threads, %.3f s\n",
              static_cast<unsigned long long>(passes), jobs_per_pass, opts.threads, timed_s);
  out.metrics.set("items_per_s", static_cast<double>(out.attempted - out.failed) / timed_s, "1/s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace perfbench
