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
#include <cstdio>
#include <string>

#include "driver/job_tool.hpp"
#include "driver/sweep.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  std::string matrix_name = "suite-overhead";
  std::string backend(sim::kDefaultBackend);
  std::string scheme;  // empty = keep each cell's own scheme axis
  bool smoke = false;
  bool lint = false;
  bool list = false;
  driver::JobTool tool("sofia_sweep", 1);

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
      .flag("--smoke", smoke, "shrink the matrix to a seconds-long smoke run")
      .flag("--lint", lint,
            "statically lint each hardened image first; findings fail the "
            "job early and land in its JSON record")
      .flag("--list", list, "list the built-in matrices and exit");
  tool.add_flags(parser);
  parser.parse_or_exit(argc, argv);

  if (list) {
    for (const auto& name : driver::matrix_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }

  return tool.run(parser, driver::merge_json, [&] {
    driver::SweepSpec spec = driver::matrix(matrix_name);
    if (smoke) spec = driver::smoke(std::move(spec));
    spec = driver::with_backend(std::move(spec), backend);
    // choice() only validates when the flag is passed; the empty default
    // means "leave the matrix's per-cell scheme axis alone".
    if (!scheme.empty()) spec = driver::with_scheme(std::move(spec), scheme);
    spec.lint = lint;
    const auto jobs = driver::expand_jobs(spec);
    std::FILE* log = tool.log;
    std::fprintf(log, "sweep %-20s %s%zu jobs on %u thread(s)\n",
                 spec.name.c_str(), tool.shard_note().c_str(), jobs.size(),
                 tool.threads);

    driver::ProgressFn progress;
    if (!tool.quiet) {
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

    const auto result = driver::run_sweep(spec, tool.threads, progress,
                                          tool.shard, tool.store.get());
    std::fprintf(log, "done in %.2f s (%u thread(s)); %s\n",
                 result.wall_seconds, result.threads_used,
                 result.all_ok() ? "all jobs ok" : "FAILURES");
    tool.finish([&] { return driver::to_json(result); });
    return result.all_ok() ? 0 : 1;
  });
}
