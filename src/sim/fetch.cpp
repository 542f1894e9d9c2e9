#include "sim/fetch.hpp"

#include <algorithm>
#include <utility>

namespace sofia::sim {

// ---------------------------------------------------------------------------
// VanillaFetch
// ---------------------------------------------------------------------------

VanillaFetch::VanillaFetch(const Memory& mem, ICache& icache,
                           const SimConfig& config, std::uint32_t start_pc)
    : FetchUnit(config.fault),
      mem_(mem),
      icache_(icache),
      config_(config),
      pc_(start_pc) {}

std::optional<FetchedInst> VanillaFetch::step(std::uint64_t cycle, bool queue_full) {
  if (waiting_ || reset_) return std::nullopt;
  if (!fetching_) {
    if (cycle < ready_at_) return std::nullopt;  // redirect not effective yet
    fetching_ = true;
    ready_at_ = cycle + icache_.access(pc_) - 1;
  }
  if (cycle < ready_at_ || queue_full) return std::nullopt;
  const std::uint32_t word = fault_.apply(mem_.load32(pc_));
  const auto decoded = isa::decode(word);
  if (!decoded) {
    reset_ = ResetEvent{ResetCause::kIllegalInstruction, cycle, pc_};
    return std::nullopt;
  }
  FetchedInst fi;
  fi.inst = *decoded;
  fi.pc = pc_;
  fi.ready = cycle + 1;
  fetching_ = false;
  ++words_delivered;
  if (decoded->op == isa::Opcode::kJal) {
    // Direct jumps are followed at decode time (LEON3 resolves them early).
    fi.fetch_redirected = true;
    pc_ += static_cast<std::uint32_t>(decoded->imm * 4);
  } else if (decoded->op == isa::Opcode::kJalr || decoded->op == isa::Opcode::kHalt) {
    // Indirect target / end of program: wait for the execute side.
    waiting_ = true;
  } else {
    // Plain instructions and conditional branches: continue sequentially
    // (static not-taken speculation; a taken branch squashes via redirect).
    pc_ += 4;
  }
  return fi;
}

void VanillaFetch::redirect(std::uint32_t target, std::uint32_t /*from_pc*/,
                            std::uint64_t cycle, bool /*indirect*/) {
  pc_ = target;
  waiting_ = false;
  fetching_ = false;
  ready_at_ = cycle;
}

// ---------------------------------------------------------------------------
// OpenedBlockMemo
// ---------------------------------------------------------------------------

const OpenedBlockMemo::Opened& OpenedBlockMemo::open(
    std::uint32_t base_word, std::uint32_t prev_word, const scheme::EntryPath& path,
    const std::vector<std::uint32_t>& raw) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(base_word + path.offset) << 32) | prev_word;
  const auto [it, fresh] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (!fresh && entry.raw == raw) {
    ++hits_;
    return entry.block;
  }
  ++misses_;
  Opened& block = entry.block;
  block = Opened{opener_->open(base_word, prev_word, path, raw), {}, std::nullopt};
  block.violation = check_block(
      block.plain, block.first_inst, policy_,
      [&](std::uint32_t /*word*/, const isa::Instruction& inst) {
        block.insts.push_back(inst);
      });
  entry.raw = raw;
  return block;
}

// ---------------------------------------------------------------------------
// SofiaFetch
// ---------------------------------------------------------------------------

SofiaFetch::SofiaFetch(const Memory& mem, ICache& icache, CipherEngine& engine,
                       const SimConfig& config, const assembler::LoadImage& image)
    : FetchUnit(config.fault),
      mem_(mem),
      icache_(icache),
      engine_(engine),
      config_(config),
      text_base_word_(image.text_base / 4),
      opener_(scheme::get_scheme(config.scheme)
                  .make_opener(config.keys, image.omega,
                               image.per_pair ? crypto::Granularity::kPerPair
                                              : crypto::Granularity::kPerWord),
              config.policy) {
  const std::uint32_t b = config.policy.words_per_block;
  for (std::uint32_t offset = 0; offset < std::min<std::uint32_t>(3, b); ++offset)
    paths_[offset] = scheme::entry_path(offset, b);
  fetch_done_.resize(b);
  raw_.resize(b);
  ks_done_.resize(b);
  decrypt_done_.resize(b);
  process_block(image.entry / 4, image.entry_prev, 0);
}

void SofiaFetch::redirect(std::uint32_t target, std::uint32_t from_pc,
                          std::uint64_t cycle, bool indirect) {
  staged_.clear();
  waiting_ = false;
  // The squashed block's queued cipher work is dropped; an in-flight
  // iterative op keeps the engine busy until it drains (see
  // CipherEngine::flush).
  engine_.flush(cycle);
  if (indirect) {
    // Under a gating scheme the source block's exit label was stored when
    // it was opened; the transfer then presents the canonical indirect
    // sentinel and must pass the target-set check. Under any
    // other scheme the dynamic prevPC simply garbles the target block
    // (an indirect jump the toolchain did not devirtualize).
    const auto it = exit_labels_.find(from_pc / 4);
    if (it != exit_labels_.end()) {
      pending_entry_check_ = it->second;
      process_block(target / 4, assembler::kIndirectPrevWord, cycle);
      return;
    }
  }
  process_block(target / 4, from_pc / 4, cycle);
}

std::optional<FetchedInst> SofiaFetch::step(std::uint64_t cycle, bool queue_full) {
  if (!queue_full && !staged_.empty() && staged_.front().ready <= cycle + 1) {
    // One IF->ID handoff per cycle, paced by the decrypt timestamps.
    FetchedInst fi = staged_.front();
    staged_.pop_front();
    ++words_delivered;
    return fi;
  }
  // Run ahead into the next block once the current one has drained enough:
  // a small stage buffer keeps at most ~2 blocks in flight, like a fetch
  // queue would.
  if (!waiting_ && !reset_ && staged_.size() <= 2 && cycle >= cont_cycle_)
    process_block(next_block_word_, cont_prev_word_, cont_cycle_);
  return std::nullopt;
}

void SofiaFetch::process_block(std::uint32_t target_word, std::uint32_t prev_word,
                               std::uint64_t entry_cycle) {
  const std::optional<std::uint8_t> pending =
      std::exchange(pending_entry_check_, std::nullopt);
  if (reset_) return;
  const std::uint32_t b = config_.policy.words_per_block;
  const std::uint32_t rel = target_word - text_base_word_;
  const std::uint32_t offset = rel % b;
  const std::uint32_t base_word = target_word - offset;
  ++blocks;

  if (offset > 2) {
    reset_ = ResetEvent{ResetCause::kInvalidEntry, entry_cycle, target_word * 4};
    return;
  }
  const scheme::EntryPath& path = paths_[offset];
  std::fill(fetch_done_.begin(), fetch_done_.end(), 0);
  std::fill(raw_.begin(), raw_.end(), 0);
  std::fill(ks_done_.begin(), ks_done_.end(), 0);

  // ---- fetch words through the I-cache ----
  // The SOFIA datapath reads fetch_words_per_cycle words per cycle (the
  // 64-bit cipher block suggests 2); misses stall for the refill.
  const std::uint32_t per_cycle = std::max(1u, config_.fetch_words_per_cycle);
  std::uint64_t cursor = entry_cycle;
  std::uint32_t in_cycle = 0;
  for (const std::uint32_t j : path.sched) {
    const std::uint32_t addr = (base_word + j) * 4;
    const std::uint32_t delay = icache_.access(addr);
    if (delay > 1) {
      cursor += delay;
      in_cycle = 1;
    } else if (in_cycle == 0 || in_cycle >= per_cycle) {
      cursor += 1;
      in_cycle = 1;
    } else {
      ++in_cycle;
    }
    fetch_done_[j] = cursor;
    raw_[j] = fault_.apply(mem_.load32(addr));
  }

  // ---- open the block through the protection scheme ----
  // A re-entry whose fetched words match an earlier open reuses it, and
  // its decode with it.
  const OpenedBlockMemo::Opened& dev = opener_.open(base_word, prev_word, path, raw_);

  // ---- replay the decrypt ops on the shared engine ----
  // Eager-issue schemes (address-only counters) start every op at block
  // entry; a serial chain additionally waits for the previous op and for
  // the span's fetched ciphertext.
  std::uint64_t prev_op_done = 0;
  for (const auto& op : dev.decrypt_ops) {
    std::uint64_t issue = entry_cycle;
    if (dev.serial_decrypt) {
      issue = std::max(issue, prev_op_done);
      for (std::uint32_t k = 0; k < op.count; ++k)
        issue = std::max(issue, fetch_done_[op.first + k]);
    }
    prev_op_done = engine_.schedule(CipherEngine::Op::kCtr, issue);
    ++ctr_ops;
    for (std::uint32_t k = 0; k < op.count; ++k)
      ks_done_[op.first + k] = prev_op_done;
  }

  std::fill(decrypt_done_.begin(), decrypt_done_.end(), 0);
  for (const std::uint32_t j : path.sched)
    decrypt_done_[j] = std::max(fetch_done_[j], ks_done_[j]);

  mac_words_seen += dev.header_words;

  // ---- replay the verify chain ----
  std::uint64_t chain_ready = 0;
  for (const auto& op : dev.verify_ops) {
    std::uint64_t in_ready = chain_ready;
    for (std::uint32_t k = 0; k < op.count; ++k)
      in_ready = std::max(in_ready, decrypt_done_[op.first + k]);
    chain_ready = engine_.schedule(CipherEngine::Op::kCbc, in_ready);
    ++cbc_ops;
  }
  for (const std::uint32_t w : dev.verify_extra_words)
    chain_ready = std::max(chain_ready, decrypt_done_[w]);
  const std::uint64_t verify_cycle = chain_ready + 1;
  if (dev.performs_verify) ++verifications;

  // ---- check placement rules, stage deliveries ----
  if (dev.verify_cause != ResetCause::kNone) {
    // The scheme's verification failed: tampered instructions or tampered
    // control flow. Reset fires when the comparison completes; nothing
    // from this block may commit (the store gate would have held its
    // stores back in the real pipeline).
    reset_ = ResetEvent{dev.verify_cause, verify_cycle, base_word * 4};
    return;
  }
  // ---- forward-edge gate ----
  // An indirect transfer must land on an entry whose sealed label matches
  // the source exit's; the check fires with the verification (both labels
  // are authenticated block state).
  if (!gate_admits(pending, dev.gate_indirect, dev.entry_label)) {
    reset_ = ResetEvent{ResetCause::kTargetSetViolation, verify_cycle,
                        base_word * 4};
    return;
  }
  if (dev.gate_indirect) exit_labels_[base_word + b - 1] = dev.exit_label;
  // An unauthenticated scheme never gates stores (there is no
  // verification to wait for).
  const std::uint64_t gate =
      dev.performs_verify && verify_cycle > config_.store_gate_headstart
          ? verify_cycle - config_.store_gate_headstart
          : 0;
  // The memo decoded the block once; every entry stages the accepted
  // words with this entry's decrypt timing, then hits any violation.
  for (std::uint32_t i = 0; i < dev.insts.size(); ++i) {
    const std::uint32_t w = dev.first_inst + i;
    FetchedInst fi;
    fi.inst = dev.insts[i];
    fi.pc = (base_word + w) * 4;
    fi.ready = decrypt_done_[w] + 1;
    fi.store_gate = gate;
    staged_.push_back(fi);
  }
  if (dev.violation) {
    const PlacementViolation& violation = *dev.violation;
    reset_ = ResetEvent{violation.cause, decrypt_done_[violation.word] + 1,
                        (base_word + violation.word) * 4};
    return;
  }

  // ---- decide how fetch continues past this block ----
  // Fall-through speculation is always sound: the sequential successor is
  // encrypted with prevPC = this block's exit word whether the exit is a
  // plain instruction or a not-taken conditional branch. Direct jumps are
  // followed at decode time (the target and the prevPC are both known).
  // Only indirect exits (jalr/ret) and halt make fetch wait.
  const isa::Opcode exit_op = staged_.back().inst.op;
  const std::uint64_t exit_decoded = decrypt_done_[b - 1] + 1;
  if (exit_op == isa::Opcode::kJal) {
    staged_.back().fetch_redirected = true;
    const std::uint32_t target =
        (base_word + b - 1) + static_cast<std::uint32_t>(staged_.back().inst.imm);
    next_block_word_ = target;
    cont_prev_word_ = base_word + b - 1;
    cont_cycle_ = std::max(cursor, exit_decoded);
  } else if (exit_op == isa::Opcode::kJalr || exit_op == isa::Opcode::kHalt) {
    waiting_ = true;
  } else {
    next_block_word_ = base_word + b;
    cont_prev_word_ = base_word + b - 1;
    cont_cycle_ = cursor;
  }
}

}  // namespace sofia::sim
