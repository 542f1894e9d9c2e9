// Mutation-based adversarial campaign engine — the dynamic complement of
// src/verify/. A campaign generates large seeded populations of tampered
// images, forged headers, spliced blocks and fault schedules
// (campaign/mutation.hpp), executes them per matrix cell (scheme × cipher
// × granularity) through the shared driver thread pool, and measures the
// defense: detection rate, detection latency (retired instructions until
// reset), verdict distribution, and — for any trial that escapes
// detection — a greedily minimized, replayable counterexample plus a
// verify::lint attribution of what the static layer would have caught.
//
// Every trial runs through one primitive, Target::run(record). The one-shot
// attacks of paper §IV-A, the ROP/JOP demos (security/demos.hpp) and the
// fetch-fault trials are hand-written records run through the same Target.
//
// Determinism contract (the sweep driver's, extended): per-job mutation
// streams are Rng::fork(job index) substreams of the campaign seed, job
// records land in index-owned slots, and to_json() excludes wall-clock —
// so the sofia-attack-campaign-v1 document is byte-identical for any
// --threads and any --shard K/N + merge split.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "campaign/mutation.hpp"
#include "crypto/key_set.hpp"
#include "driver/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/verify.hpp"

namespace sofia::campaign {

/// One matrix cell: the protection scheme under attack and the cipher /
/// CTR-granularity axes it runs with.
struct CellSpec {
  std::string scheme;
  crypto::CipherKind cipher = crypto::CipherKind::kRectangle80;
  crypto::Granularity granularity = crypto::Granularity::kPerPair;

  /// "sofia-cbcmac/RECTANGLE-80/per-pair" — progress lines and errors.
  std::string label() const;
};

struct CampaignSpec {
  std::string name = "full";
  /// Victim program: empty = the built-in attack victim, otherwise a
  /// workloads registry name (generated with `seed` and `size`).
  std::string workload;
  std::uint32_t size = 0;  ///< workload size; 0 = the registry default
  std::vector<CellSpec> cells;
  std::uint32_t jobs_per_cell = 1000;
  std::uint64_t seed = 1;
  /// Execution backend for every trial (sim::backend_registry() key); the
  /// functional backend is the fleet-scale default.
  std::string backend = "functional";
  /// Version nonce of the donor build cross-version splices graft from.
  std::uint16_t donor_omega = 0xD00D;

  std::uint64_t total_jobs() const {
    return static_cast<std::uint64_t>(cells.size()) * jobs_per_cell;
  }
};

/// The full matrix: every registered scheme × both ciphers × both CTR
/// granularities, built-in victim.
CampaignSpec default_campaign();

/// Shrink to a seconds-long run: one cell per registered scheme (paper
/// cipher, per-pair granularity); jobs_per_cell is left to the caller.
CampaignSpec smoke(CampaignSpec spec);

// ---- the trial primitive ---------------------------------------------------

/// Cycle budget of every attack session: tampered runs can loop on garbage.
inline constexpr std::uint64_t kTrialBudget = 10'000'000;

/// One victim prepared for attack: hardened once, with the donor build
/// cross-version splices graft from, its clean-run baseline and its
/// generation geometry. run() is the one trial primitive the campaign's
/// classifier, minimizer and replay share with every one-shot attack, demo
/// and fault trial. The const members are safe to call concurrently.
class Target {
 public:
  /// A campaign cell's victim: the spec's workload (or the built-in victim)
  /// under the cell's scheme, cipher and granularity, keys drawn from the
  /// campaign seed, the spec's backend and donor omega.
  static Target for_cell(const CampaignSpec& spec, const CellSpec& cell);

  /// An SR32 source under `profile`; the donor is the same source sealed
  /// under the version nonce `donor_omega`.
  static Target from_source(std::string source, pipeline::DeviceProfile profile,
                            std::uint16_t donor_omega);

  /// Apply `record` to fresh copies of the hardened image and the session
  /// configuration, then execute. Out-of-range mutations throw.
  sim::RunResult run(const MutationRecord& record) const;

  /// The same on the session's vanilla baseline image (no donor: a
  /// cross-version splice throws). Links the baseline on first use.
  sim::RunResult run_vanilla(const MutationRecord& record);

  /// Error rules verify::lint fires on the tampered image.
  std::vector<verify::Rule> lint(const MutationRecord& record) const;

  const sim::RunResult& clean_run() const { return clean_; }
  const assembler::LoadImage& image() const { return image_; }
  const assembler::LoadImage& donor() const { return donor_; }
  const ImageGeometry& geometry() const { return geometry_; }
  /// The session the victim was hardened in (program, layout, vanilla
  /// baseline, effective device configuration).
  pipeline::Pipeline& session() { return *session_; }
  const pipeline::Pipeline& session() const { return *session_; }

 private:
  /// Builds the victim (role "victim") or donor (role "donor") session.
  using SessionFactory = std::function<std::unique_ptr<pipeline::Pipeline>(
      const pipeline::DeviceProfile&, const std::string& role)>;

  Target(const SessionFactory& make, const pipeline::DeviceProfile& profile,
         std::uint16_t donor_omega, const std::string& label);

  /// Built per call (never stored): a stored donor pointer would dangle
  /// the moment the target moves.
  ApplyContext ctx() const { return {geometry_.words_per_block, &donor_}; }

  std::unique_ptr<pipeline::Pipeline> session_;
  assembler::LoadImage image_;
  sim::RunResult clean_;
  verify::ProgramModel model_;
  verify::DeviceSpec device_spec_;
  assembler::LoadImage donor_;
  ImageGeometry geometry_;
};

// ---- trial classification --------------------------------------------------

enum class TrialClass : std::uint8_t {
  kDetected,  ///< the device pulled the reset line
  kHarmless,  ///< run completed with output identical to the clean run
  kEscaped,   ///< anything else: tampering visibly altered the execution
};

std::string_view to_string(TrialClass cls);

/// The paper's criterion, applied per trial: a reset is a detection; a
/// completed run with clean output means the mutation was never fetched
/// (dead code / over-long fault schedule); everything else — wrong output,
/// a simulator fault, a blown cycle budget — escaped the defense.
TrialClass classify(const sim::RunResult& run, const std::string& clean_output);

/// Greedy mutation-subset reduction: drop each mutation in turn, keeping
/// the removal whenever `trial` still reports kEscaped, and return the
/// (locally) minimal record. `trial` is called with candidate records only;
/// a single-mutation record returns unchanged without calling it.
MutationRecord minimize(
    const MutationRecord& record,
    const std::function<TrialClass(const MutationRecord&)>& trial);

// ---- results ---------------------------------------------------------------

/// Mirrors sim::ResetCause (kNone..kTargetSetViolation) for the per-cell
/// verdict tallies; test_campaign pins the two in sync.
inline constexpr std::size_t kResetCauseCount = 8;

/// One surviving counterexample: everything needed to replay and triage it.
struct EscapeRecord {
  std::uint64_t job = 0;  ///< global job index (replay: fork(seed, job))
  std::string status;     ///< run status name ("halted", "max-cycles", ...)
  bool output_clean = false;
  MutationRecord applied;    ///< the full generated record
  MutationRecord minimized;  ///< greedy subset still escaping
  /// Error rules verify::lint fires on the tampered image — what the
  /// static layer would have caught (empty for pure fault schedules).
  std::vector<verify::Rule> lint;
};

struct CellResult {
  CellSpec cell;
  bool authenticated = false;
  std::uint64_t jobs = 0;  ///< trials executed (this shard's slice)
  std::uint64_t detected = 0;
  std::uint64_t harmless = 0;
  std::uint64_t escaped = 0;
  /// Reset-cause tally over detected trials, indexed by sim::ResetCause.
  std::array<std::uint64_t, kResetCauseCount> causes{};
  /// Applied-mutation tally, indexed by MutationKind.
  std::array<std::uint64_t, kMutationKindCount> mutations{};
  /// Detection latency in retired instructions until the reset, over
  /// detected trials (identical across cycle/functional backends).
  std::uint64_t latency_min = 0;
  std::uint64_t latency_max = 0;
  std::uint64_t latency_total = 0;
  std::vector<EscapeRecord> escapes;  ///< sorted by job index

  /// detected / (detected + escaped); 1.0 when no trial tampered
  /// effectively (harmless-only cells defend vacuously).
  double detection_rate() const;
};

struct CampaignResult {
  CampaignSpec spec;
  driver::ShardSpec shard;         ///< which slice the tallies cover
  std::vector<CellResult> cells;   ///< one per spec cell, in spec order
  double wall_seconds = 0;         ///< measured, NOT part of the JSON
  unsigned threads_used = 1;       ///< ditto
  /// Trials served from the result cache (0 without one; NOT in the JSON —
  /// cached and fresh runs must render byte-identically).
  std::uint64_t cached_trials = 0;

  std::uint64_t jobs_run() const;
  /// No escapes in any authenticated cell (the exit-code gate; the "null"
  /// baseline is expected to leak and never gates).
  bool authenticated_clean() const;
};

/// Called after each cell's tallies are folded (in cell order).
using CellProgressFn = std::function<void(const CellResult&)>;

/// Execute the campaign's (sharded) job list on `threads` workers. Builds
/// one Target per referenced cell, runs every trial, and
/// folds results in job-index order. Throws sofia::Error for unusable
/// specs (no cells, zero jobs, unknown scheme/backend/workload, a victim
/// whose clean run fails); per-trial outcomes are data, never errors.
///
/// With a non-null `store`, every trial's outcome is looked up by a digest
/// over the cell's attack surface (profile fingerprint, base + donor image
/// bytes, canonical SimConfig encoding, campaign seed) and the global job
/// index before executing — a killed campaign re-run against the same
/// cache resumes from disk and converges to the same bytes.
CampaignResult run_campaign(const CampaignSpec& spec, unsigned threads,
                            const CellProgressFn& progress = {},
                            driver::ShardSpec shard = {},
                            cache::ResultStore* store = nullptr);

/// Render as a deterministic sofia-attack-campaign-v1 document.
std::string to_json(const CampaignResult& result);

/// Merge one shard document per shard index back into the canonical
/// unsharded document — byte-identical to a single-machine run. Inputs
/// must agree on every header field, carry distinct "shard" members K/N
/// with exactly N documents, and sum to jobs_per_cell everywhere; throws
/// sofia::Error otherwise.
std::string merge_json(const std::vector<std::string>& documents);

}  // namespace sofia::campaign
