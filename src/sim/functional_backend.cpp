#include "sim/functional_backend.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/core.hpp"

namespace sofia::sim {

namespace {

using isa::Instruction;
using isa::Opcode;

// One architectural interpreter run. The SOFIA front end is modelled at
// block granularity: enter_block() performs the full fetch → decrypt →
// MAC-verify → placement-check sequence of SofiaFetch::process_block in
// the same order (entry offset, then MAC, then per-word decode/exit/store
// rules), minus every timing decision.
class FunctionalMachine {
 public:
  FunctionalMachine(const assembler::LoadImage& image, const SimConfig& config)
      : image_(image),
        config_(config),
        core_(image, result_),
        fetch_fault_(config.fault) {
    if (image.sofia)
      opener_ = scheme::get_scheme(config.scheme)
                    .make_opener(config.keys, image.omega,
                                 image.per_pair ? crypto::Granularity::kPerPair
                                                : crypto::Granularity::kPerWord);
  }

  RunResult run() {
    if (image_.sofia)
      run_sofia();
    else
      run_vanilla();
    // No timing model: "cycles" is the retired instruction count, and the
    // reset/trace timestamps below use the same clock.
    result_.stats.cycles = result_.stats.insts;
    return std::move(result_);
  }

 private:
  /// A verified, decoded block, keyed by (entry word, prevPC word).
  struct Block {
    ResetCause cause = ResetCause::kNone;  ///< != kNone: entering resets
    /// True when `cause` came from the per-word decode/placement loop.
    /// The forward-edge gate fires after verification but before decode
    /// (matching SofiaFetch's check order), so run_sofia needs to know
    /// which side of the gate a cached cause belongs to.
    bool cause_is_decode = false;
    std::uint32_t reset_pc = 0;
    std::uint32_t base_word = 0;
    std::uint32_t first_inst = 0;  ///< word index of the first instruction
    bool gate_indirect = false;    ///< scheme gates indirect transfers
    std::uint8_t entry_label = 0;  ///< label of the entered path
    std::uint8_t exit_label = 0;   ///< label the exit jalr may reach
    std::vector<Instruction> insts;
    /// What opening this block cost: counted on every fresh open, and on
    /// every reuse while a fault is armed (so the counts equal those of a
    /// run that refetches every block).
    std::uint32_t fetch_words = 0;
    std::uint32_t ctr_ops = 0;
    std::uint32_t cbc_ops = 0;
    std::uint32_t mac_words = 0;
    bool verifies = false;
    /// The cached block entered after this one last time, and its key:
    /// the steady-state loop follows it instead of hashing into cache_.
    Block* succ = nullptr;
    std::uint64_t succ_key = 0;
  };

  // ---- outcome plumbing ---------------------------------------------------

  void finish(RunResult::Status status) {
    result_.status = status;
    done_ = true;
  }

  void fault(const std::string& message) {
    result_.fault = message;
    finish(RunResult::Status::kFault);
  }

  void reset(ResetCause cause, std::uint32_t pc) {
    result_.reset = ResetEvent{cause, result_.stats.insts, pc};
    finish(RunResult::Status::kReset);
  }

  /// Instruction budget (SimConfig::max_cycles repurposed as an
  /// instruction count — the only clock this backend has).
  bool budget_ok() {
    if (result_.stats.insts < config_.max_cycles) return true;
    finish(RunResult::Status::kMaxCycles);
    return false;
  }

  // ---- fetch path ---------------------------------------------------------

  std::uint32_t text_base_word() const { return image_.text_base / 4; }

  const Block& enter_block(std::uint32_t target_word, std::uint32_t prev_word) {
    // Deferred invalidation: a store over cached code marks the cache
    // dirty (see exec) and we drop it here, between blocks — never while
    // run_sofia() still executes out of a reference into cache_. The
    // successor links die with their blocks.
    if (text_dirty_) {
      cache_.clear();
      cached_lo_ = image_.text_base;
      cached_hi_ = std::uint64_t{image_.text_base} + image_.text_bytes();
      text_dirty_ = false;
      last_ = nullptr;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(target_word) << 32) | prev_word;
    Block* blk = nullptr;
    if (last_ != nullptr && last_->succ != nullptr && last_->succ_key == key) {
      blk = last_->succ;
    } else if (const auto it = cache_.find(key); it != cache_.end()) {
      blk = &it->second;
    }
    // A cached block is reused unless the armed flip lands in the words it
    // fetches; under an armed fault the reuse still advances the fetch
    // counter and counts the open, so every counter matches a refetch.
    if (blk != nullptr && !fetch_fault_.lands_within(blk->fetch_words)) {
      if (config_.fault.enabled) {
        fetch_fault_.skip(blk->fetch_words);
        count_open(*blk);
      }
      return follow(key, *blk);
    }
    return open_block(key);
  }

  /// Open the block under `key` fresh and cache it, unless its fetch takes
  /// the armed flip. Kept out of line: the steady state of a run never
  /// gets here.
  [[gnu::noinline]] const Block& open_block(std::uint64_t key) {
    const bool flip_ahead = fetch_fault_.pending();
    Block fresh = decode_block(static_cast<std::uint32_t>(key >> 32),
                               static_cast<std::uint32_t>(key));
    count_open(fresh);
    if (flip_ahead && !fetch_fault_.pending()) {
      // This open took the flip: run it once, never cache it.
      scratch_ = std::move(fresh);
      last_ = nullptr;
      return scratch_;
    }
    return follow(key, cache_.emplace(key, std::move(fresh)).first->second);
  }

  /// Enter the cached `blk` (key `key`): it becomes the successor of the
  /// cached block that ran last, and the block that runs now.
  const Block& follow(std::uint64_t key, Block& blk) {
    if (last_ != nullptr) {
      last_->succ = &blk;
      last_->succ_key = key;
    }
    last_ = &blk;
    return blk;
  }

  void count_open(const Block& blk) {
    auto& st = result_.stats;
    ++st.blocks_fetched;
    st.fetch_words += blk.fetch_words;
    st.ctr_ops += blk.ctr_ops;
    st.cbc_ops += blk.cbc_ops;
    st.mac_words += blk.mac_words;
    if (blk.verifies) ++st.mac_verifications;
  }

  Block decode_block(std::uint32_t target_word, std::uint32_t prev_word) {
    Block blk;
    const std::uint32_t b = config_.policy.words_per_block;
    const std::uint32_t offset = (target_word - text_base_word()) % b;
    blk.base_word = target_word - offset;

    if (offset > 2) {
      blk.cause = ResetCause::kInvalidEntry;
      blk.reset_pc = target_word * 4;
      return blk;
    }
    // Fetch order, block type and multiplexor path — identical to SofiaFetch.
    const scheme::EntryPath path = scheme::entry_path(offset, b);

    std::vector<std::uint32_t> raw(b, 0);
    for (const std::uint32_t j : path.sched) {
      const std::uint32_t addr = (blk.base_word + j) * 4;
      raw[j] = fetch_fault_.apply(core_.mem().load32(addr));
      cached_lo_ = std::min(cached_lo_, addr);
      cached_hi_ = std::max(cached_hi_, std::uint64_t{addr} + 4);
    }
    blk.fetch_words = static_cast<std::uint32_t>(path.sched.size());

    // ---- open the block through the protection scheme ----
    const std::uint32_t base_word = blk.base_word;
    const scheme::DeviceBlock dev = opener_->open(base_word, prev_word, path, raw);
    blk.ctr_ops = static_cast<std::uint32_t>(dev.decrypt_ops.size());
    blk.cbc_ops = static_cast<std::uint32_t>(dev.verify_ops.size());
    blk.mac_words = static_cast<std::uint32_t>(dev.header_words);
    blk.verifies = dev.performs_verify;
    blk.first_inst = dev.first_inst;
    blk.gate_indirect = dev.gate_indirect;
    blk.entry_label = dev.entry_label;
    blk.exit_label = dev.exit_label;
    if (dev.verify_cause != ResetCause::kNone) {
      blk.cause = dev.verify_cause;
      blk.reset_pc = base_word * 4;
      return blk;
    }
    const auto violation = check_block(
        dev.plain, blk.first_inst, config_.policy,
        [&](std::uint32_t, const Instruction& inst) { blk.insts.push_back(inst); });
    if (violation) {
      blk.cause = violation->cause;
      blk.cause_is_decode = true;
      blk.reset_pc = (base_word + violation->word) * 4;
    }
    return blk;
  }

  // ---- execution ----------------------------------------------------------

  void run_sofia() {
    std::uint32_t target_word = image_.entry / 4;
    std::uint32_t prev_word = image_.entry_prev;
    const std::uint32_t b = config_.policy.words_per_block;
    // Source exit label of an in-flight indirect transfer (gating schemes).
    std::optional<std::uint8_t> pending;
    while (!done_) {
      const Block& blk = enter_block(target_word, prev_word);
      // SofiaFetch's check order: invalid entry / verification first, the
      // forward-edge gate next, decode-time causes last.
      if (blk.cause != ResetCause::kNone && !blk.cause_is_decode) {
        reset(blk.cause, blk.reset_pc);
        return;
      }
      if (!gate_admits(pending, blk.gate_indirect, blk.entry_label)) {
        reset(ResetCause::kTargetSetViolation, blk.base_word * 4);
        return;
      }
      pending.reset();
      if (blk.cause != ResetCause::kNone) {
        reset(blk.cause, blk.reset_pc);
        return;
      }
      if (blk.insts.empty()) {
        fault("block policy leaves no instruction slots");
        return;
      }
      std::uint32_t next = 0;
      for (std::size_t i = 0; i < blk.insts.size() && !done_; ++i) {
        if (!budget_ok()) return;
        const std::uint32_t pc =
            (blk.base_word + blk.first_inst + static_cast<std::uint32_t>(i)) * 4;
        next = pc + 4;
        exec(blk.insts[i], pc, next);
      }
      if (done_) return;
      // The exit word decided where fetch continues; its own address is
      // the next block's prevPC (identical for taken transfers, direct
      // jumps and sequential fall-through). A gated indirect exit instead
      // presents the canonical sentinel and arms the label check.
      const Instruction& exit_inst = blk.insts.back();
      if (exit_inst.op == Opcode::kJalr && !isa::is_ret(exit_inst) &&
          blk.gate_indirect) {
        pending = blk.exit_label;
        prev_word = assembler::kIndirectPrevWord;
      } else {
        prev_word = blk.base_word + b - 1;
      }
      target_word = next / 4;
    }
  }

  void run_vanilla() {
    std::uint32_t pc = image_.entry;
    while (!done_) {
      if (!budget_ok()) return;
      const auto decoded = isa::decode(fetch_fault_.apply(core_.mem().load32(pc)));
      if (!decoded) {
        reset(ResetCause::kIllegalInstruction, pc);
        return;
      }
      ++result_.stats.fetch_words;
      std::uint32_t next = pc + 4;
      exec(*decoded, pc, next);
      pc = next;
    }
  }

  /// Execute one instruction; `next` holds the successor byte PC (already
  /// pc + 4) and is overwritten by taken transfers. Inlined into both run
  /// loops, so the shared step costs no call per instruction.
  [[gnu::always_inline]] void exec(const Instruction& in, std::uint32_t pc,
                                   std::uint32_t& next) {
    if (config_.collect_trace && result_.trace.size() < config_.max_trace)
      result_.trace.push_back({result_.stats.insts + 1, pc, isa::encode(in)});
    const StepOutcome out = core_.step(in, pc);
    switch (out.kind) {
      case StepOutcome::Kind::kNext:
        // A store into the text section (or any word a cached block was
        // fetched from) makes every cached decryption stale; the cycle
        // machine refetches live and would see (and reset on) the modified
        // ciphertext. Only mark the cache dirty here: the executing block
        // is a reference into cache_, so the actual clear waits until the
        // next enter_block().
        if (image_.sofia && isa::is_store(in.op)) {
          const std::uint32_t addr =
              core_.reg(in.ra) + static_cast<std::uint32_t>(in.imm);
          if (std::uint64_t{addr} + 4 > cached_lo_ && addr < cached_hi_)
            text_dirty_ = true;
        }
        break;
      case StepOutcome::Kind::kTaken:
        next = out.target;
        break;
      case StepOutcome::Kind::kHalt:
        finish(RunResult::Status::kHalted);
        break;
      case StepOutcome::Kind::kExit:
        finish(RunResult::Status::kExited);
        break;
      case StepOutcome::Kind::kFault:
        fault(out.fault);
        break;
    }
  }

  const assembler::LoadImage& image_;
  const SimConfig& config_;
  RunResult result_;
  Core core_;
  FetchFault fetch_fault_;
  /// The device side of config_.scheme (null for vanilla images).
  std::unique_ptr<scheme::Opener> opener_;
  std::unordered_map<std::uint64_t, Block> cache_;
  Block scratch_;  ///< the open that took the armed flip (never cached)
  Block* last_ = nullptr;  ///< the cached block entered last (null: none)
  /// Byte range a store must miss to leave cache_ valid: the text section
  /// widened to every word a block open has fetched since the last clear.
  std::uint32_t cached_lo_ = image_.text_base;
  std::uint64_t cached_hi_ = std::uint64_t{image_.text_base} + image_.text_bytes();
  bool text_dirty_ = false;  ///< store hit cached text; clear cache_ between blocks
  bool done_ = false;
};

}  // namespace

RunResult FunctionalBackend::run(const assembler::LoadImage& image,
                                 const SimConfig& config) const {
  FunctionalMachine machine(image, config);
  return machine.run();
}

}  // namespace sofia::sim
