// sofia-sweep: run an experiment matrix (workloads × configurations) on a
// thread pool and emit the results as a machine-readable JSON document.
// The built-in matrices cover the paper's headline tables plus the repo's
// ablations; adding a scenario is one entry in src/driver/sweep.cpp.
//
// Multi-machine use: `--shard K/N` runs only job indices ≡ K (mod N), and
// `--merge out.json in1.json in2.json...` concatenates the per-job records
// back into the canonical document — byte-identical to an unsharded run.
// `--json -` streams the document to stdout (progress moves to stderr), so
// a coordinator like sofia_fleet can collect shards over any stdio
// transport (subprocess, ssh, container) without a shared filesystem.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_store.hpp"
#include "driver/sweep.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

/// The run's cache counters as a side document ({"cache": {...}} stanza) —
/// deliberately separate from the sweep document, which must stay
/// byte-identical with and without a cache.
std::string cache_stats_json(const sofia::cache::ResultStore& store) {
  const auto s = store.stats();
  sofia::json::Writer w(2);
  w.begin_object();
  w.member("schema", "sofia-cache-stats-v1");
  w.key("cache").begin_object();
  w.member("root", store.root().string());
  w.member("hits", s.hits);
  w.member("misses", s.misses);
  w.member("stored", s.stored);
  w.member("failures", s.failures);
  w.end_object();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::string matrix_name = "suite-overhead";
  std::string backend(sim::kDefaultBackend);
  std::string scheme;  // empty = keep each cell's own scheme axis
  std::string json_path;
  std::string cache_dir;
  std::string cache_stats_path;
  std::string shard_text;
  std::string merge_out;
  std::vector<std::string> merge_inputs;
  std::uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  bool smoke = false;
  bool lint = false;
  bool quiet = false;
  bool list = false;

  cli::Parser parser("sofia_sweep",
                     "parallel experiment matrix -> JSON results");
  parser
      .option("--matrix", matrix_name, "NAME",
              "matrix to run (default: suite-overhead; see --list)")
      .choice("--backend", backend, sofia::sim::backend_names(),
              "execution backend for every job (functional = fast "
              "architectural prefilter, no timing)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "force a protection scheme onto every job (default: keep "
              "each matrix cell's own, e.g. the scheme matrix's axis)")
      .option("--threads", threads, "N",
              "worker threads (default: hardware concurrency)")
      .option("--json", json_path, "PATH",
              "write the results document to PATH ('-' = stdout)")
      .option("--cache", cache_dir, "DIR",
              "content-addressed result cache: reuse prior results and "
              "store new ones (default: $SOFIA_CACHE when set)")
      .option("--cache-stats", cache_stats_path, "PATH",
              "write this run's cache hit/miss counters as a JSON document")
      .option("--shard", shard_text, "K/N",
              "run only job indices congruent to K mod N")
      .option("--merge", merge_out, "OUT.json",
              "merge shard documents (trailing args) into OUT.json and exit")
      .flag("--smoke", smoke, "shrink the matrix to a seconds-long smoke run")
      .flag("--lint", lint,
            "statically lint each hardened image first; findings fail the "
            "job early and land in its JSON record")
      .flag("--list", list, "list the built-in matrices and exit")
      .flag("--quiet", quiet, "suppress the per-job progress table")
      .positional_list("in.json", merge_inputs);
  parser.parse_or_exit(argc, argv);

  if (list) {
    for (const auto& name : driver::matrix_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  if (threads < 1) return parser.fail("--threads must be >= 1");
  if (merge_out.empty() && !merge_inputs.empty())
    return parser.fail("unexpected argument '" + merge_inputs.front() +
                       "' (input documents are only valid with --merge)");

  // With the document on stdout, every informational line moves to stderr
  // so the output stream stays byte-clean for the collector.
  std::FILE* log = (json_path == "-" || merge_out == "-") ? stderr : stdout;

  try {
    if (!merge_out.empty()) {
      if (merge_inputs.empty())
        return parser.fail("--merge needs at least one input document");
      std::vector<std::string> documents;
      documents.reserve(merge_inputs.size());
      for (const auto& path : merge_inputs)
        documents.push_back(io::read_file(path));
      io::emit_document(merge_out, driver::merge_json(documents));
      std::fprintf(log, "merged %zu document(s) into %s\n", documents.size(),
                   merge_out.c_str());
      return 0;
    }

    driver::ShardSpec shard;
    if (!shard_text.empty()) shard = driver::ShardSpec::parse(shard_text);

    driver::SweepSpec spec = driver::matrix(matrix_name);
    if (smoke) spec = driver::smoke(std::move(spec));
    spec = driver::with_backend(std::move(spec), backend);
    // choice() only validates when the flag is passed; the empty default
    // means "leave the matrix's per-cell scheme axis alone".
    if (!scheme.empty()) spec = driver::with_scheme(std::move(spec), scheme);
    spec.lint = lint;
    const auto jobs = driver::expand_jobs(spec);
    if (shard.is_whole()) {
      std::fprintf(log, "sweep %-20s %zu jobs on %u thread(s)\n",
                   spec.name.c_str(), jobs.size(), threads);
    } else {
      std::fprintf(log, "sweep %-20s shard %u/%u of %zu jobs on %u thread(s)\n",
                   spec.name.c_str(), shard.index, shard.count, jobs.size(),
                   threads);
    }

    driver::ProgressFn progress;
    if (!quiet) {
      progress = [log](const driver::JobResult& r) {
        if (!r.ok) {
          std::fprintf(log, "  [%3zu] %-14s %-34s FAILED: %s\n", r.job.index,
                       r.job.workload.c_str(), r.job.config.name.c_str(),
                       r.error.c_str());
          return;
        }
        std::fprintf(log,
                     "  [%3zu] %-14s %-34s cycles %10llu -> %10llu (%+6.1f%%)\n",
                     r.job.index, r.job.workload.c_str(),
                     r.job.config.name.c_str(),
                     static_cast<unsigned long long>(r.m.vanilla_cycles),
                     static_cast<unsigned long long>(r.m.sofia_cycles),
                     r.m.cycle_overhead_pct());
      };
    }
    // Cache warnings (loud misses, store failures) always go to stderr so
    // they survive --quiet and never touch a stdout document.
    const auto store = cache::ResultStore::open(cache_dir, [](const std::string& m) {
      std::fprintf(stderr, "sofia_sweep: %s\n", m.c_str());
    });
    if (store)
      std::fprintf(log, "cache: %s\n", store->root().string().c_str());
    if (!store && !cache_stats_path.empty())
      return parser.fail("--cache-stats needs --cache (or $SOFIA_CACHE)");

    const auto result =
        driver::run_sweep(spec, threads, progress, shard, store.get());
    std::fprintf(log, "done in %.2f s (%u thread(s)); %s\n",
                 result.wall_seconds, result.threads_used,
                 result.all_ok() ? "all jobs ok" : "FAILURES");
    if (store) {
      const auto cs = store->stats();
      std::fprintf(stderr,
                   "cache: %llu hit(s), %llu miss(es), %llu stored, "
                   "%llu failure(s)\n",
                   static_cast<unsigned long long>(cs.hits),
                   static_cast<unsigned long long>(cs.misses),
                   static_cast<unsigned long long>(cs.stored),
                   static_cast<unsigned long long>(cs.failures));
      if (!cache_stats_path.empty())
        io::emit_document(cache_stats_path, cache_stats_json(*store));
    }

    if (!json_path.empty()) {
      io::emit_document(json_path, driver::to_json(result));
      if (json_path != "-")
        std::fprintf(log, "wrote %s\n", json_path.c_str());
    }
    return result.all_ok() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_sweep: %s\n", e.what());
    return 1;
  }
}
