// Workload campaign-full: campaign::run_campaign(default_campaign()) at T
// threads — the run `sofia_attack --campaign` performs: every registered
// scheme × cipher × granularity cell on the built-in victim, 1000 trials
// per cell, functional backend. The trial population is the default one
// (campaign seed 1): the global job index fixes each trial's mutations,
// so the population decides which runaway trials occur.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <mutex>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "driver/pool.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

using namespace sofia;

campaign::CampaignSpec make_spec(const Options& opts) {
  campaign::CampaignSpec spec = campaign::default_campaign();
  if (opts.smoke) {
    spec = campaign::smoke(std::move(spec));
    spec.jobs_per_cell = 16;
  }
  return spec;
}

/// Per-cell tallies that must repeat exactly across runs and must sum to
/// the same values when the campaign is split into one call per trial.
struct Tally {
  std::uint64_t jobs = 0, detected = 0, harmless = 0, escaped = 0, latency_total = 0;
  std::array<std::uint64_t, campaign::kResetCauseCount> causes{};
  std::array<std::uint64_t, campaign::kMutationKindCount> mutations{};
  std::map<std::string, std::uint64_t> escapes;  ///< by status ("error" folded)

  void add(const campaign::CellResult& c) {
    jobs += c.jobs;
    detected += c.detected;
    harmless += c.harmless;
    escaped += c.escaped;
    latency_total += c.latency_total;
    for (std::size_t i = 0; i < causes.size(); ++i) causes[i] += c.causes[i];
    for (std::size_t i = 0; i < mutations.size(); ++i) mutations[i] += c.mutations[i];
    for (const auto& e : c.escapes) ++escapes[status_key(e.status)];
  }
  void add(const Tally& t) {
    jobs += t.jobs;
    detected += t.detected;
    harmless += t.harmless;
    escaped += t.escaped;
    latency_total += t.latency_total;
    for (std::size_t i = 0; i < causes.size(); ++i) causes[i] += t.causes[i];
    for (std::size_t i = 0; i < mutations.size(); ++i) mutations[i] += t.mutations[i];
    for (const auto& [status, n] : t.escapes) escapes[status] += n;
  }
  bool operator==(const Tally&) const = default;

  static std::string status_key(const std::string& status) {
    return status.rfind("error", 0) == 0 ? "error" : status;
  }
};

std::vector<Tally> tallies_of(const campaign::CampaignResult& r) {
  std::vector<Tally> out(r.cells.size());
  for (std::size_t c = 0; c < r.cells.size(); ++c) out[c].add(r.cells[c]);
  return out;
}

/// Failed trials of one run: every `error:` trial, every escape from an
/// authenticated cell, and every trial of a cell whose tallies differ from
/// the expected ones (when an expectation is given).
std::uint64_t failed_trials(const campaign::CampaignResult& r,
                            const std::vector<Tally>* expected) {
  std::uint64_t failed = 0;
  const auto now = tallies_of(r);
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const auto& cell = r.cells[c];
    std::uint64_t bad = cell.authenticated ? cell.escaped : 0;
    if (!cell.authenticated) {
      const auto it = now[c].escapes.find("error");
      if (it != now[c].escapes.end()) bad += it->second;
    }
    if (expected != nullptr && !((*expected)[c] == now[c])) bad = cell.jobs;
    if (bad != 0)
      std::fprintf(stderr, "perfbench: campaign cell %s: %llu failed trial(s)\n",
                   cell.cell.label().c_str(), static_cast<unsigned long long>(bad));
    failed += bad;
  }
  return failed;
}

Tally total_of(const std::vector<Tally>& tallies) {
  Tally total;
  for (const auto& t : tallies) total.add(t);
  return total;
}

void put_counts(const Tally& t, Metrics& m) {
  m.set("campaign.detected", static_cast<double>(t.detected), "count");
  m.set("campaign.harmless", static_cast<double>(t.harmless), "count");
  m.set("campaign.escaped", static_cast<double>(t.escaped), "count");
  for (const char* status : {"halted", "exited", "fault", "max-cycles", "error"}) {
    const auto it = t.escapes.find(status);
    m.set(std::string("campaign.escapes.") + status,
          it == t.escapes.end() ? 0.0 : static_cast<double>(it->second), "count");
  }
  m.set("campaign.detection_rate",
        static_cast<double>(t.detected) / static_cast<double>(t.detected + t.escaped), "ratio");
}

void report_reference(const campaign::CampaignResult& r, const std::string& document) {
  std::printf("reference campaign (seed %llu, %zu cells x %u trials):\n",
              static_cast<unsigned long long>(r.spec.seed), r.cells.size(),
              r.spec.jobs_per_cell);
  report("campaign_sha256", support::sha256_hex(document));
  Metrics counts;
  put_counts(total_of(tallies_of(r)), counts);
  for (const auto& e : counts.entries()) report(e.name, e.value, e.unit);
}

// ---- traced run ------------------------------------------------------------

struct TracedTrial {
  double call_ms = 0;   ///< the whole run_campaign call
  double trial_ms = 0;  ///< its timed trial phase (fixture build excluded)
};

Outcome traced_run(const campaign::CampaignSpec& spec, const Options& opts) {
  Outcome out;
  const auto t0 = Clock::now();
  const campaign::CampaignResult untraced = campaign::run_campaign(spec, opts.threads);
  const double untraced_s = seconds_since(t0);
  const std::string document = campaign::to_json(untraced);
  const auto expected = tallies_of(untraced);

  // One run_campaign call per trial, sharded down to that single job, so
  // each trial gets a span of its own from outside the engine.
  const std::uint64_t total = spec.total_jobs();
  std::vector<std::string> span_names;
  for (const auto& cell : spec.cells) span_names.push_back("trial." + cell.scheme);
  std::vector<TracedTrial> trials(total);
  std::vector<Tally> summed(spec.cells.size());
  std::mutex summed_mutex;  // guards summed
  std::uint64_t call_failures = 0;
  Tracer tracer;
  const auto t1 = Clock::now();
  driver::for_each_index(total, opts.threads, [&](std::size_t g) {
    const std::size_t cell = g / spec.jobs_per_cell;
    try {
      auto span = tracer.span(span_names[cell].c_str(), static_cast<std::int64_t>(g));
      const auto r = campaign::run_campaign(
          spec, 1, {},
          driver::ShardSpec{static_cast<std::uint32_t>(g), static_cast<std::uint32_t>(total)});
      trials[g] = {span.elapsed_ms(), r.wall_seconds * 1e3};
      const std::lock_guard<std::mutex> lock(summed_mutex);
      for (std::size_t c = 0; c < r.cells.size(); ++c) summed[c].add(r.cells[c]);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(summed_mutex);
      ++call_failures;
      std::fprintf(stderr, "perfbench: traced trial %zu failed: %s\n", g, e.what());
    }
  });
  const double traced_s = seconds_since(t1);

  std::vector<double> render_ms;
  for (int i = 0; i < 7; ++i) {
    const auto r0 = Clock::now();
    const std::string doc = campaign::to_json(untraced);
    render_ms.push_back(seconds_since(r0) * 1e3);
    if (doc != document) ++call_failures;
  }

  out.attempted = total;
  out.failed = failed_trials(untraced, nullptr) + call_failures;
  for (std::size_t c = 0; c < summed.size(); ++c)
    if (!(summed[c] == expected[c])) {
      std::fprintf(stderr, "perfbench: per-trial tallies of cell %zu differ from the run's\n", c);
      out.failed += expected[c].jobs;
    }

  std::vector<double> trial_ms, overhead_ms;
  std::map<std::string, double> scheme_s;
  double sum_ms = 0, max_ms = 0;
  for (std::uint64_t g = 0; g < total; ++g) {
    const TracedTrial& t = trials[g];
    trial_ms.push_back(t.trial_ms);
    overhead_ms.push_back(t.call_ms - t.trial_ms);
    scheme_s[spec.cells[g / spec.jobs_per_cell].scheme] += t.trial_ms / 1e3;
    sum_ms += t.trial_ms;
    max_ms = std::max(max_ms, t.trial_ms);
  }
  Metrics& m = out.metrics;
  m.set("item_p50_ms", percentile(trial_ms, 50), "ms");
  m.set("item_p99_ms", percentile(trial_ms, 99), "ms");
  m.set("campaign.trial_max_s", max_ms / 1e3, "s");
  m.set("campaign.tail_share", sum_ms > 0 ? max_ms / sum_ms : 0.0, "ratio");
  m.set("campaign.call_floor_ms", median(overhead_ms), "ms");
  for (const char* scheme : {"sofia-cbcmac", "sponge", "null", "flta"})
    m.set(std::string("campaign.") + scheme + ".s", scheme_s[scheme], "s");
  put_counts(total_of(expected), m);
  m.set("driver.busy_frac", sum_ms / (opts.threads * untraced_s * 1e3), "ratio");
  m.set("driver.idle_tail_s", tracer.idle_tail_s("trial."), "s");
  m.set("json.campaign_render_ms", median(render_ms), "ms");

  std::printf("traced run: %llu trials, one run_campaign call each, on %u threads\n",
              static_cast<unsigned long long>(total), opts.threads);
  report("untraced_wall_s", untraced_s, "s");
  report("traced_wall_s", traced_s, "s");
  report("item samples", static_cast<double>(trial_ms.size()), "count");
  report("call floor (fixture rebuild)", median(overhead_ms), "ms");
  report("campaign_sha256", support::sha256_hex(document));
  std::printf("self time by span:\n");
  tracer.print_self_time_table();
  tracer.write(opts.trace_dir / ("campaign-full-seed" + std::to_string(opts.seed) + ".json"));

  run_layer_probes(opts, m, out.failed);
  return out;
}

}  // namespace

Outcome run_campaign_full(const Options& opts) {
  const campaign::CampaignSpec spec = make_spec(opts);
  mark_ready();
  if (opts.setup_only) return {};
  if (opts.trace) return traced_run(spec, opts);

  Outcome out;
  double timed_s = 0;
  std::uint64_t passes = 0;
  std::vector<Tally> expected;
  const auto loop_start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const campaign::CampaignResult r = campaign::run_campaign(spec, opts.threads);
    const double pass_s = seconds_since(t0);
    timed_s += pass_s;
    std::printf("  campaign pass %llu: %.3f s\n", static_cast<unsigned long long>(passes), pass_s);
    out.attempted += r.jobs_run();
    if (passes == 0) {
      report_reference(r, campaign::to_json(r));
      expected = tallies_of(r);
      // Every pass must repeat the first one's tallies exactly.
      if (opts.inject_wrong_expected) ++expected[0].escaped;
    }
    out.failed += failed_trials(r, &expected);
    ++passes;
  } while (seconds_since(loop_start) < opts.seconds);

  std::printf("timed phase: %llu campaigns x %llu trials on %u threads, %.3f s\n",
              static_cast<unsigned long long>(passes),
              static_cast<unsigned long long>(spec.total_jobs()), opts.threads, timed_s);
  out.metrics.set("items_per_s", static_cast<double>(out.attempted - out.failed) / timed_s, "1/s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace perfbench
