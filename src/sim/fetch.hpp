// Front ends. Two implementations of the same interface:
//
//  * VanillaFetch — the unmodified-LEON3 analogue: stream words through the
//    I-cache, decode, deliver; stall at control instructions until the
//    execute side resolves them (LEON3 has no branch prediction).
//
//  * SofiaFetch — the paper's architecture (Fig. 1): the block state
//    machine. A transfer's target word offset selects the block type and
//    multiplexor path (§II-E); every fetched word is decrypted with its
//    control-flow-dependent counter; the run-time CBC-MAC over the
//    decrypted instructions is compared against the stored MAC words; and
//    violations pull the reset line. Stores carry a gate cycle so they
//    cannot pass the MA stage before their block verifies.
//
// Both deliver FetchedInst records tagged with the cycle the instruction
// leaves the IF stage, so the execute side consumes them with true timing.
// The fetch-fault model and SofiaFetch's per-word decode/placement rules
// are the shared ones of sim/core.hpp, which the functional backend uses
// too.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "assembler/image.hpp"
#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/cipher_engine.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/icache.hpp"
#include "sim/memory.hpp"
#include "xform/block_policy.hpp"

namespace sofia::sim {

struct FetchedInst {
  isa::Instruction inst;
  std::uint32_t pc = 0;          ///< byte address of the instruction word
  std::uint64_t ready = 0;       ///< first cycle the execute side may use it
  std::uint64_t store_gate = 0;  ///< earliest cycle a store may commit
  /// Fetch already followed this (direct) jump; the execute side must not
  /// redirect again.
  bool fetch_redirected = false;
};

class FetchUnit {
 public:
  virtual ~FetchUnit() = default;

  /// Advance one cycle; deliver at most one instruction. `queue_full`
  /// applies backpressure.
  virtual std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) = 0;

  /// A taken transfer executed at byte address `from_pc` redirects fetch to
  /// `target`, effective at `cycle`. Used for taken conditional branches
  /// (squashing the fall-through speculation) and for indirect jumps (which
  /// fetch cannot follow on its own). `indirect` marks a non-ret jalr:
  /// under a forward-edge gating scheme the transfer presents the
  /// kIndirectPrevWord sentinel and must pass the target-set label check.
  virtual void redirect(std::uint32_t target, std::uint32_t from_pc,
                        std::uint64_t cycle, bool indirect = false) = 0;

  /// Pending SOFIA reset, if any (valid once its cycle is reached).
  virtual std::optional<ResetEvent> reset() const = 0;

  std::uint64_t words_delivered = 0;
  std::uint64_t mac_words_seen = 0;
  std::uint64_t ctr_ops = 0;
  std::uint64_t cbc_ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t verifications = 0;

 protected:
  explicit FetchUnit(const FaultInjection& fault) : fault_(fault) {}

  FetchFault fault_;  ///< every raw fetched word passes through it
};

class VanillaFetch final : public FetchUnit {
 public:
  VanillaFetch(const Memory& mem, ICache& icache, const SimConfig& config,
               std::uint32_t start_pc);

  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) override;
  void redirect(std::uint32_t target, std::uint32_t from_pc,
                std::uint64_t cycle, bool indirect = false) override;
  std::optional<ResetEvent> reset() const override { return reset_; }

 private:
  const Memory& mem_;
  ICache& icache_;
  const SimConfig& config_;
  std::uint32_t pc_;
  std::uint64_t ready_at_ = 0;  ///< fetch in progress completes at this cycle
  bool fetching_ = false;
  bool waiting_ = false;  ///< stopped at an indirect jump / halt
  std::optional<ResetEvent> reset_;
};

/// Opener::open and the block's decode, memoized for one run. An open is a
/// pure function of (base, prevPC, entry path, raw words, session keys):
/// the keys are fixed per opener and the path follows from the target's
/// entry offset, so an entry keyed on (target word, prev word) and
/// validated against the raw words it was opened from is exactly what a
/// fresh open would return. The entry also keeps check_block's result over
/// the opened plaintext (a pure function of that plaintext and the run's
/// fixed BlockPolicy): the decoded instructions and the placement
/// violation, if any, so a hit neither re-opens nor re-decodes. Any
/// differing word (a store into text, an armed fetch fault) misses and
/// re-opens and re-decodes, replacing the entry; no invalidation hook is
/// needed. Only the host's recomputation is saved: the caller still replays
/// the returned op lists and stages every instruction with its own timing,
/// so the modelled device does the same work on every entry.
class OpenedBlockMemo {
 public:
  /// An opened block plus check_block's verdict on its plaintext under the
  /// memo's policy. check_block accepts a contiguous run of words, so
  /// insts[i] is block word first_inst + i; `violation`, when set, names
  /// the word that stopped the walk (it lies right after the accepted
  /// ones).
  struct Opened : scheme::DeviceBlock {
    std::vector<isa::Instruction> insts;
    std::optional<PlacementViolation> violation;
  };

  /// `policy` is the run's block geometry (default: the paper's, as in
  /// SimConfig).
  explicit OpenedBlockMemo(std::unique_ptr<scheme::Opener> opener,
                           const xform::BlockPolicy& policy = {})
      : opener_(std::move(opener)), policy_(policy) {}

  /// Opener::open's contract, plus the decode. The reference stays valid
  /// until the next call.
  const Opened& open(std::uint32_t base_word, std::uint32_t prev_word,
                     const scheme::EntryPath& path,
                     const std::vector<std::uint32_t>& raw);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::vector<std::uint32_t> raw;  ///< the words the block was opened from
    Opened block;
  };
  std::unique_ptr<scheme::Opener> opener_;
  xform::BlockPolicy policy_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class SofiaFetch final : public FetchUnit {
 public:
  SofiaFetch(const Memory& mem, ICache& icache, CipherEngine& engine,
             const SimConfig& config, const assembler::LoadImage& image);

  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) override;
  void redirect(std::uint32_t target, std::uint32_t from_pc,
                std::uint64_t cycle, bool indirect = false) override;
  std::optional<ResetEvent> reset() const override { return reset_; }

 private:
  /// Process one whole block starting at `entry_cycle`: fetch, open it
  /// through the protection scheme (decrypt + verify), replay the scheme's
  /// cipher ops on the engine model, queue deliveries; decide how fetch
  /// continues (sequential speculation, decode-time direct jump, or wait
  /// for the execute side). Sets reset_ on violations.
  void process_block(std::uint32_t target_word, std::uint32_t prev_word,
                     std::uint64_t entry_cycle);

  const Memory& mem_;
  ICache& icache_;
  CipherEngine& engine_;
  const SimConfig& config_;
  std::uint32_t text_base_word_;
  /// The device side of config_.scheme, keyed with config_.keys and the
  /// image's omega/granularity, memoized for this run.
  OpenedBlockMemo opener_;
  /// The fetch schedule of each valid entry offset (0, 1, 2).
  std::array<scheme::EntryPath, 3> paths_;
  /// Per-block scratch, b words each, indexed by block word: the cycle
  /// each word is fetched, the raw fetched words (zero where the path
  /// skips a word), and when each word's keystream and plaintext are
  /// ready.
  std::vector<std::uint64_t> fetch_done_;
  std::vector<std::uint32_t> raw_;
  std::vector<std::uint64_t> ks_done_;
  std::vector<std::uint64_t> decrypt_done_;

  std::deque<FetchedInst> staged_;  ///< decoded, time-stamped deliveries
  bool waiting_ = false;            ///< stopped at an indirect exit / halt
  std::uint32_t next_block_word_ = 0;  ///< continuation target (word addr)
  std::uint32_t cont_prev_word_ = 0;   ///< prev word for the continuation
  std::uint64_t cont_cycle_ = 0;       ///< earliest continuation cycle
  std::optional<ResetEvent> reset_;

  /// Forward-edge gate state: the exit label of each block a gating scheme
  /// opened, keyed by its exit word address. Non-gating schemes store
  /// nothing, so a missing entry means "not gated".
  std::unordered_map<std::uint32_t, std::uint8_t> exit_labels_;
  /// Set by an indirect redirect: the source exit label the next opened
  /// block's entry label must equal (consumed by process_block).
  std::optional<std::uint8_t> pending_entry_check_;
};

}  // namespace sofia::sim
