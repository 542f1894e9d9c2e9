// Parallel experiment-sweep driver: the one engine behind sofia_sweep,
// sofia_report and the bench binaries that used to hand-roll the same
// workload × configuration loop. A SweepSpec names a cartesian matrix of
// workloads × ConfigPoints (transform options + SimConfig variants), which
// expands into a deterministic, index-ordered job list; run_sweep() executes
// the jobs on a std::thread pool and collects Measurements back in job
// order. Per-job seeds are a pure function of the job index, so results —
// and the JSON document to_json() renders — are byte-identical for any
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "driver/pool.hpp"
#include "support/measure.hpp"
#include "verify/verify.hpp"

namespace sofia::driver {

/// One configuration cell of the matrix: a DeviceProfile (cipher, keys,
/// policy, granularity) + simulator timing knobs + the cipher-unroll factor
/// the hardware time model uses.
struct ConfigPoint {
  std::string name;  ///< short label, e.g. "per-word demand-driven"
  bench::MeasureOptions opts;

  /// The device side of the cell (opts.profile, spelled out because it is
  /// the swept axis most matrices vary).
  pipeline::DeviceProfile& profile() { return opts.profile; }
  const pipeline::DeviceProfile& profile() const { return opts.profile; }

  int unroll_cycles = 2;  ///< hw::HwModel::sofia() design point

  /// Stable machine-readable fingerprint of every swept axis
  /// ("gran=per-pair alt=1 pipe=1 policy=8/4 cipher=RECTANGLE-80
  /// icache=4096x32 unroll=2 scheme=sofia-cbcmac backend=cycle").
  std::string fingerprint() const;
};

/// The paper-default configuration (pair-granular CTR, alternating 2-cycle
/// pipelined cipher, 4 KiB I-cache).
ConfigPoint paper_default_config();

struct SweepSpec {
  std::string name;                     ///< matrix name, lands in the JSON
  std::vector<std::string> workloads;   ///< registry names; empty = all
  std::vector<ConfigPoint> configs;     ///< at least one
  std::uint32_t size_override = 0;      ///< 0 = each workload's default_size
  /// Divide workload sizes by this factor (sofia_sweep --smoke and the
  /// ablation benches use it); sizes are clamped to >= 4.
  std::uint32_t size_divisor = 1;
  std::uint64_t base_seed = 1;
  /// When true, job i runs with seed base_seed + i (a pure function of the
  /// job index, independent of thread interleaving). When false every job
  /// uses base_seed — the mode for reproducing the paper's fixed-input
  /// numbers.
  bool vary_seed = false;
  /// Statically lint each job's hardened image (Pipeline::lint()) before
  /// the device runs; a finding fails the job early with the findings in
  /// its JSON record instead of wasting a vanilla+SOFIA execution pair.
  bool lint = false;

  /// All workload names resolved (expands the empty-means-all shorthand).
  std::vector<std::string> resolved_workloads() const;
};

/// One expanded cell: workloads-major, configs-minor, in spec order.
struct JobSpec {
  std::size_t index = 0;
  std::string workload;
  std::uint32_t size = 0;
  std::uint64_t seed = 0;
  ConfigPoint config;
  bool lint = false;  ///< run the static lint prefilter (SweepSpec::lint)
};

/// Deterministic matrix expansion (also fixes each job's seed).
std::vector<JobSpec> expand_jobs(const SweepSpec& spec);

struct JobResult {
  JobSpec job;
  bool ok = false;
  std::string error;       ///< what() of the failure when !ok
  bench::Measurement m;    ///< valid only when ok
  /// Error-severity findings when the lint prefilter failed the job; they
  /// land in the job's JSON record as a "lint" array.
  std::vector<verify::Finding> lint;
  /// Served from the result cache (the simulations were skipped). Not part
  /// of the JSON document — cached and fresh runs must stay byte-identical.
  bool from_cache = false;
};

struct SweepResult {
  std::string sweep_name;
  std::size_t total_jobs = 0;   ///< full matrix size (== jobs.size() unsharded)
  ShardSpec shard;              ///< which slice `jobs` holds
  std::vector<JobResult> jobs;  ///< in job-index order, one per executed cell
  double wall_seconds = 0;      ///< measured, NOT part of the JSON document
  unsigned threads_used = 1;    ///< ditto

  bool all_ok() const;
  /// Jobs served from the result cache (0 without one).
  std::size_t cached_jobs() const;
};

/// Called after each job completes (serialized by the driver; safe to
/// print from). Jobs may finish out of index order.
using ProgressFn = std::function<void(const JobResult&)>;

/// Execute the matrix on `threads` worker threads (clamped to [1, jobs]).
/// A job failure (functional mismatch, transform error) is captured in its
/// JobResult, never thrown — one broken cell must not sink a whole sweep.
/// With a non-trivial `shard`, only that slice of the job list runs; seeds
/// are fixed at expansion time, so shard results are identical to the same
/// jobs' results in an unsharded run.
///
/// With a non-null `store`, each job's result is looked up by the digest
/// of its semantic inputs (profile fingerprint, hardened image bytes,
/// canonical SimConfig encoding, seed) before the device runs, and stored
/// after them — interrupted or repeated sweeps resume from disk, and the
/// rendered document stays byte-identical to an uncached run.
SweepResult run_sweep(const SweepSpec& spec, unsigned threads,
                      const ProgressFn& progress = {}, ShardSpec shard = {},
                      cache::ResultStore* store = nullptr);

/// Render the sweep as a deterministic JSON document (schema documented in
/// the README): sweep name + one record per job with its matrix index, the
/// config fingerprint, cycle/text numbers and overhead percentages.
/// Sharded results additionally carry a "shard" member. Wall-clock and
/// thread count are deliberately excluded so documents are byte-identical
/// across thread counts.
std::string to_json(const SweepResult& result);

/// Merge sharded sweep documents back into the canonical unsharded one:
/// validates schema/sweep-name/job-count agreement, requires every matrix
/// index exactly once across the inputs, and re-emits the records in index
/// order — byte-identical to what an unsharded run writes. Throws
/// sofia::Error on overlap, gaps or mismatched documents.
std::string merge_json(const std::vector<std::string>& documents);

/// Built-in matrices, selectable as sofia_sweep --matrix NAME.
const std::vector<std::string>& matrix_names();

/// Look up a built-in matrix; throws sofia::Error for unknown names.
SweepSpec matrix(std::string_view name);

/// Shrink a spec to a seconds-long smoke run (three small workloads,
/// reduced sizes) while keeping its config axes.
SweepSpec smoke(SweepSpec spec);

/// Point every config cell at an execution backend (sim::backend_registry()
/// key; the sofia_sweep/sofia_report --backend flag). Validates via
/// DeviceProfile::parse_backend (throws for unknown names); the backend
/// lands in each job's fingerprint and the per-job "backend" JSON member.
SweepSpec with_backend(SweepSpec spec, std::string_view backend);

/// Point every config cell at a protection scheme (scheme::scheme_registry()
/// key; the sofia_sweep/sofia_report --scheme flag). Validates via
/// DeviceProfile::parse_scheme (throws for unknown names); the scheme lands
/// in each job's fingerprint and the per-job "scheme" JSON member. Note the
/// built-in "scheme" matrix already varies this axis per cell — forcing it
/// there would collapse the matrix, which is why the CLI flag is optional.
SweepSpec with_scheme(SweepSpec spec, std::string_view scheme);

}  // namespace sofia::driver
