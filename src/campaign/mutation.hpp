// Composable, replayable image mutations — the one attack vocabulary of
// the campaign engine, the one-shot attacks, the ROP/JOP demos and the
// fetch-fault trials. Each Mutation is one primitive tamper: a record is an
// ordered list of mutations applied to a fresh copy of the hardened image
// (and, for the fault-schedule kind, to the SimConfig) by campaign::Target,
// so any trial — including a minimized counterexample pulled out of a
// campaign JSON — replays exactly, and one mutation has one name
// (Mutation::describe()) everywhere.
//
// Generation is pure: generate_record(rng, geometry) draws only from the
// passed Rng, so a per-job substream (Rng::fork of the campaign seed by job
// index) makes every trial byte-reproducible for any thread count or shard
// split.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/image.hpp"
#include "sim/config.hpp"
#include "support/rng.hpp"

namespace sofia::json {
class Writer;
struct Value;
}

namespace sofia::campaign {

/// The mutation primitives, in catalog order. Parameter meaning (a, b, c)
/// is per kind; unused parameters are zero.
enum class MutationKind : std::uint8_t {
  kBitFlip,             ///< flip bit b of ciphertext word a
  kWordPatch,           ///< overwrite ciphertext word a with value b
  kWordRelocate,        ///< copy ciphertext word a over word b
  kBlockSplice,         ///< copy encrypted block a over block b
  kHeaderForge,         ///< XOR header word b (0/1) of block a with mask c
  kCrossVersionSplice,  ///< replace block a with the donor-omega build's block a
  kFetchFault,          ///< transient fault: flip bit b of the a-th fetched word
  kRetargetIndirect,    ///< overwrite dispatch slot at data offset a with address b
};

inline constexpr std::size_t kMutationKindCount = 8;

std::string_view to_string(MutationKind kind);

/// Parse a catalog name ("bit-flip", ...); throws sofia::Error listing the
/// catalog for anything unknown.
MutationKind parse_mutation_kind(std::string_view name);

/// One catalog row (the sofia_attack --mutators table and the README).
struct MutatorInfo {
  MutationKind kind;
  std::string_view name;
  std::string_view description;
};

/// All mutators in enum order.
const std::vector<MutatorInfo>& mutator_catalog();

struct Mutation {
  MutationKind kind = MutationKind::kBitFlip;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const Mutation&) const = default;

  /// Human-readable one-liner, e.g. "bit-flip w12 b7".
  std::string describe() const;
};

/// An ordered list of mutations — one trial's full tamper schedule.
using MutationRecord = std::vector<Mutation>;

/// What generation needs to know about the victim image.
struct ImageGeometry {
  std::uint32_t text_words = 0;
  std::uint32_t words_per_block = 8;
  std::uint32_t text_base = 0;
  /// Byte offsets of aligned data words holding a declared indirect-entry
  /// address (the jalr-reachable dispatch slots). Empty when the active
  /// scheme devirtualizes indirect jumps — retargets are never generated.
  std::vector<std::uint32_t> dispatch_slots;
  /// Sorted canonical indirect-entry byte addresses (the union of every
  /// declared target set). Generation steers retargets OUTSIDE this set:
  /// an in-set rewire is a transfer the target-set policy deliberately
  /// admits, so it is not a detectable tamper.
  std::vector<std::uint32_t> indirect_targets;

  std::uint32_t blocks() const { return text_words / words_per_block; }
};

/// Draw one mutation of a uniform-weighted kind mix (bit flips dominate,
/// AFL-style). Parameters are bounded by the geometry.
Mutation generate(Rng& rng, const ImageGeometry& geometry);

/// Draw a full record: usually one mutation, sometimes a 2-3 mutation
/// combination. At most one fetch-fault per record (SimConfig carries a
/// single fault slot); a second draw degrades to a bit flip.
MutationRecord generate_record(Rng& rng, const ImageGeometry& geometry);

/// Target-owned donor material for the cross-version kind.
struct ApplyContext {
  std::uint32_t words_per_block = 8;
  /// The same program sealed under a different version nonce omega;
  /// nullptr makes kCrossVersionSplice an error.
  const assembler::LoadImage* donor = nullptr;
};

/// Apply one mutation to the trial's image/config copies. Out-of-range
/// parameters and a missing donor throw sofia::Error naming the mutation —
/// generated records are always in range; hand-written replays may not be.
void apply(const Mutation& m, assembler::LoadImage& image,
           sim::SimConfig& config, const ApplyContext& ctx);

/// Apply a whole record in order.
void apply(const MutationRecord& record, assembler::LoadImage& image,
           sim::SimConfig& config, const ApplyContext& ctx);

/// Emit as a JSON object: {"kind": name, "a": .., "b": .., "c": ..}.
void to_json(const Mutation& m, json::Writer& w);

/// Parse the to_json form back; throws sofia::Error on malformed records.
Mutation mutation_from_json(const json::Value& v);

}  // namespace sofia::campaign
