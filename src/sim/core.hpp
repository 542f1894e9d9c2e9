// The execution core both backends share, so the ISA semantics and the
// SOFIA block rules exist once:
//
//  * Core — the SR32 architectural state (registers with r0, memory) and
//    the one instruction step: ALU, loads, stores, MMIO (console / exit /
//    put-int), branch and jump results, misaligned and MMIO-load faults,
//    and the insts/nops/loads/stores/branches/taken counters. The step
//    keeps no clock: it reports an outcome and each backend maps it onto
//    its own (the cycle machine wraps it with operand-ready timing, the
//    functional machine counts retired instructions).
//  * check_block / gate_admits — the per-word decode and placement rules
//    of an opened SOFIA block, and its forward-edge label check.
//  * FetchFault — the transient fetch-fault model (SimConfig::fault),
//    including the bookkeeping a front end needs to serve a block from a
//    cache without refetching it.
//
// Everything here is header-inline so each run loop inlines the step: no
// virtual call, no std::function, and no allocation beyond console output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "assembler/image.hpp"
#include "isa/isa.hpp"
#include "sim/config.hpp"
#include "sim/memory.hpp"
#include "support/bits.hpp"

namespace sofia::sim {

/// What one executed instruction asks of its backend.
struct StepOutcome {
  enum class Kind : std::uint8_t {
    kNext,   ///< continue at pc + 4
    kTaken,  ///< taken branch, jal or jalr: continue at `target`
    kHalt,   ///< halt retired
    kExit,   ///< store to the MMIO exit register (RunResult::exit_code set)
    kFault,  ///< simulator-level error named by `fault`
  };
  Kind kind = Kind::kNext;
  std::uint32_t target = 0;
  const char* fault = nullptr;
};

class Core {
 public:
  /// Load `image` into memory and point sp at its stack. Console output,
  /// the exit code and the architectural counters go to `result`.
  Core(const assembler::LoadImage& image, RunResult& result) : result_(result) {
    mem_.load_image(image);
    regs_[isa::kRegSp] = image.stack_top;
  }

  const Memory& mem() const { return mem_; }
  std::uint32_t reg(unsigned r) const { return regs_[r]; }

  /// Execute `in` at byte address `pc`. A taken transfer's target is
  /// computed before its link register is written, so `jalr lr, lr` works.
  [[gnu::always_inline]] StepOutcome step(const isa::Instruction& in,
                                          std::uint32_t pc) {
    using isa::Opcode;
    auto& st = result_.stats;
    ++st.insts;

    const std::uint32_t a = regs_[in.ra];
    const std::uint32_t b = regs_[in.rb];
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    const std::int32_t imm = in.imm;
    const auto uimm = static_cast<std::uint32_t>(imm);

    switch (in.op) {
      case Opcode::kNop: ++st.nops; break;
      case Opcode::kHalt: return {StepOutcome::Kind::kHalt};
      case Opcode::kAdd: write(in.rd, a + b); break;
      case Opcode::kSub: write(in.rd, a - b); break;
      case Opcode::kAnd: write(in.rd, a & b); break;
      case Opcode::kOr: write(in.rd, a | b); break;
      case Opcode::kXor: write(in.rd, a ^ b); break;
      case Opcode::kSll: write(in.rd, a << (b & 31)); break;
      case Opcode::kSrl: write(in.rd, a >> (b & 31)); break;
      case Opcode::kSra:
        write(in.rd, static_cast<std::uint32_t>(sa >> (b & 31)));
        break;
      case Opcode::kSlt: write(in.rd, sa < sb ? 1 : 0); break;
      case Opcode::kSltu: write(in.rd, a < b ? 1 : 0); break;
      case Opcode::kMul: write(in.rd, a * b); break;
      case Opcode::kAddi: write(in.rd, a + uimm); break;
      case Opcode::kAndi: write(in.rd, a & uimm); break;
      case Opcode::kOri: write(in.rd, a | uimm); break;
      case Opcode::kXori: write(in.rd, a ^ uimm); break;
      case Opcode::kSlli: write(in.rd, a << (uimm & 31)); break;
      case Opcode::kSrli: write(in.rd, a >> (uimm & 31)); break;
      case Opcode::kSrai:
        write(in.rd, static_cast<std::uint32_t>(sa >> (uimm & 31)));
        break;
      case Opcode::kSlti: write(in.rd, sa < imm ? 1 : 0); break;
      case Opcode::kSltiu: write(in.rd, a < uimm ? 1 : 0); break;
      case Opcode::kLui: write(in.rd, uimm << 14); break;
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        return load(in, a + uimm);
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        return store(in.op, a + uimm, regs_[in.rd]);
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        ++st.branches;
        if (!branch_taken(in.op, a, b)) break;
        ++st.taken;
        return {StepOutcome::Kind::kTaken, pc + static_cast<std::uint32_t>(imm * 4)};
      case Opcode::kJal:
        ++st.branches;
        ++st.taken;
        write(in.rd, pc + 4);
        return {StepOutcome::Kind::kTaken, pc + static_cast<std::uint32_t>(imm * 4)};
      case Opcode::kJalr: {
        ++st.branches;
        ++st.taken;
        const std::uint32_t target = (a + uimm) & ~3u;
        write(in.rd, pc + 4);
        return {StepOutcome::Kind::kTaken, target};
      }
    }
    return {};
  }

 private:
  static StepOutcome fault(const char* message) {
    return {StepOutcome::Kind::kFault, 0, message};
  }

  void write(unsigned r, std::uint32_t value) {
    if (r != isa::kRegZero) regs_[r] = value;
  }

  static bool branch_taken(isa::Opcode op, std::uint32_t a, std::uint32_t b) {
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case isa::Opcode::kBeq: return a == b;
      case isa::Opcode::kBne: return a != b;
      case isa::Opcode::kBlt: return sa < sb;
      case isa::Opcode::kBge: return sa >= sb;
      case isa::Opcode::kBltu: return a < b;
      case isa::Opcode::kBgeu: return a >= b;
      default: return false;
    }
  }

  StepOutcome load(const isa::Instruction& in, std::uint32_t addr) {
    using isa::Opcode;
    if (addr >= kMmioConsole) return fault("load from MMIO region");
    std::uint32_t value = 0;
    switch (in.op) {
      case Opcode::kLw:
        if (addr % 4 != 0) return fault("misaligned lw");
        value = mem_.load32(addr);
        break;
      case Opcode::kLh:
        if (addr % 2 != 0) return fault("misaligned lh");
        value = static_cast<std::uint32_t>(sign_extend(mem_.load16(addr), 16));
        break;
      case Opcode::kLhu:
        if (addr % 2 != 0) return fault("misaligned lhu");
        value = mem_.load16(addr);
        break;
      case Opcode::kLb:
        value = static_cast<std::uint32_t>(sign_extend(mem_.load8(addr), 8));
        break;
      default:  // kLbu
        value = mem_.load8(addr);
        break;
    }
    write(in.rd, value);
    ++result_.stats.loads;
    return {};
  }

  StepOutcome store(isa::Opcode op, std::uint32_t addr, std::uint32_t value) {
    if (addr >= kMmioConsole) return mmio(addr, value);
    if (op == isa::Opcode::kSw) {
      if (addr % 4 != 0) return fault("misaligned sw");
      mem_.store32(addr, value);
    } else if (op == isa::Opcode::kSh) {
      if (addr % 2 != 0) return fault("misaligned sh");
      mem_.store16(addr, static_cast<std::uint16_t>(value));
    } else {
      mem_.store8(addr, static_cast<std::uint8_t>(value));
    }
    ++result_.stats.stores;
    return {};
  }

  StepOutcome mmio(std::uint32_t addr, std::uint32_t value) {
    switch (addr) {
      case kMmioConsole:
        result_.output.push_back(static_cast<char>(value & 0xFF));
        break;
      case kMmioExit:
        result_.exit_code = static_cast<int>(value);
        return {StepOutcome::Kind::kExit};
      case kMmioPutInt:
        result_.output += std::to_string(static_cast<std::int32_t>(value));
        result_.output.push_back('\n');
        break;
      default:
        return fault("store to unmapped MMIO address");
    }
    ++result_.stats.stores;
    return {};
  }

  Memory mem_;
  std::uint32_t regs_[isa::kNumRegs] = {};
  RunResult& result_;
};

/// The transient fetch fault (SimConfig::fault): flip one bit of the N-th
/// raw word a front end fetches. Each front end passes every word it
/// fetches through its own FetchFault, in fetch order.
class FetchFault {
 public:
  explicit FetchFault(const FaultInjection& fault) : fault_(fault) {}

  std::uint32_t apply(std::uint32_t word) {
    const std::uint64_t index = count_++;
    if (fault_.enabled && index == fault_.fetch_index)
      return word ^ (1u << (fault_.bit & 31));
    return word;
  }

  /// True while the armed flip is still ahead of the fetch stream.
  bool pending() const { return fault_.enabled && fault_.fetch_index >= count_; }

  /// True when the armed flip lands in the next `words` fetches.
  bool lands_within(std::uint64_t words) const {
    return pending() && fault_.fetch_index - count_ < words;
  }

  /// Account `words` fetches served without apply(); none may take the
  /// flip (see lands_within).
  void skip(std::uint64_t words) { count_ += words; }

 private:
  FaultInjection fault_;
  std::uint64_t count_ = 0;
};

/// The forward-edge gate: an indirect transfer armed with its source
/// exit's label (`pending`) may only enter a gated entry sealed with the
/// same non-zero label. Anything else passes.
inline bool gate_admits(std::optional<std::uint8_t> pending, bool gate_indirect,
                        std::uint8_t entry_label) {
  return !pending || (gate_indirect && entry_label != 0 && entry_label == *pending);
}

/// A decode-time violation inside an opened block: what, and at which
/// word of the block.
struct PlacementViolation {
  ResetCause cause = ResetCause::kNone;
  std::uint32_t word = 0;
};

/// The per-word rules of an opened SOFIA block, in the device's check
/// order: an undecodable word, then a control instruction off the exit
/// slot, then a store below the policy's first store slot. Walks the
/// decrypted words `plain` from `first` to the exit slot, hands every word
/// that passes to `accept(word, inst)`, and stops at the first violation.
template <typename Accept>
std::optional<PlacementViolation> check_block(const std::vector<std::uint32_t>& plain,
                                              std::uint32_t first,
                                              const xform::BlockPolicy& policy,
                                              Accept&& accept) {
  const std::uint32_t b = policy.words_per_block;
  for (std::uint32_t w = first; w < b; ++w) {
    const auto decoded = isa::decode(plain[w]);
    if (!decoded) return PlacementViolation{ResetCause::kIllegalInstruction, w};
    if (isa::is_control(decoded->op) && w != b - 1)
      return PlacementViolation{ResetCause::kIllegalExit, w};
    if (isa::is_store(decoded->op) && w < policy.store_min_word)
      return PlacementViolation{ResetCause::kRestrictedStore, w};
    accept(w, *decoded);
  }
  return std::nullopt;
}

}  // namespace sofia::sim
