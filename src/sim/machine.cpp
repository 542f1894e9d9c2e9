#include "sim/machine.hpp"

#include <deque>
#include <memory>

#include "isa/disasm.hpp"
#include "sim/cipher_engine.hpp"
#include "sim/core.hpp"
#include "sim/fetch.hpp"
#include "sim/icache.hpp"
#include "support/hex.hpp"

namespace sofia::sim {

std::string_view to_string(ResetCause cause) {
  switch (cause) {
    case ResetCause::kNone: return "none";
    case ResetCause::kMacMismatch: return "mac-mismatch";
    case ResetCause::kInvalidEntry: return "invalid-entry";
    case ResetCause::kRestrictedStore: return "restricted-store";
    case ResetCause::kIllegalExit: return "illegal-exit";
    case ResetCause::kIllegalInstruction: return "illegal-instruction";
    case ResetCause::kStateCorruption: return "state-corruption";
    case ResetCause::kTargetSetViolation: return "target-set-violation";
  }
  return "?";
}

std::string format_trace(const std::vector<TraceEntry>& trace) {
  std::string out;
  for (const TraceEntry& e : trace) {
    out += std::to_string(e.cycle);
    out += "\t";
    out += hex32_0x(e.pc);
    out += "\t";
    out += isa::disassemble_word(e.word, e.pc);
    out += "\n";
  }
  return out;
}

std::string_view to_string(RunResult::Status status) {
  switch (status) {
    case RunResult::Status::kHalted: return "halted";
    case RunResult::Status::kExited: return "exited";
    case RunResult::Status::kReset: return "reset";
    case RunResult::Status::kFault: return "fault";
    case RunResult::Status::kMaxCycles: return "max-cycles";
  }
  return "?";
}

namespace {

using isa::Instruction;
using isa::Opcode;

class Machine {
 public:
  Machine(const assembler::LoadImage& image, const SimConfig& config)
      : config_(config),
        core_(image, result_),
        icache_(config.icache),
        engine_(config.cipher) {
    if (image.sofia)
      fetch_ = std::make_unique<SofiaFetch>(core_.mem(), icache_, engine_, config_,
                                            image);
    else
      fetch_ = std::make_unique<VanillaFetch>(core_.mem(), icache_, config_,
                                              image.entry);
  }

  RunResult run() {
    while (!done_) {
      if (const auto reset = fetch_->reset(); reset && cycle_ >= reset->cycle) {
        finish(RunResult::Status::kReset, reset->cycle);
        result_.reset = *reset;
        break;
      }
      exec_step();
      if (done_) break;
      if (auto fi = fetch_->step(cycle_, queue_.size() >= config_.fetch_queue))
        queue_.push_back(*fi);
      ++cycle_;
      if (cycle_ >= config_.max_cycles) {
        finish(RunResult::Status::kMaxCycles, cycle_);
        break;
      }
    }
    collect_stats();
    return std::move(result_);
  }

 private:
  void finish(RunResult::Status status, std::uint64_t at_cycle) {
    result_.status = status;
    result_.stats.cycles = at_cycle;
    done_ = true;
  }

  std::uint64_t reg_ready(unsigned r) const {
    return r == isa::kRegZero ? 0 : reg_ready_[r];
  }

  void exec_step() {
    if (cycle_ < busy_until_) {
      ++result_.stats.exec_stall_cycles;
      return;
    }
    if (queue_.empty() || queue_.front().ready > cycle_) {
      ++result_.stats.queue_empty_cycles;
      return;
    }
    const FetchedInst fi = queue_.front();
    queue_.pop_front();
    execute(fi);
  }

  /// Time one instruction around the shared step: wait for its operands
  /// (forwarding is modelled by reg_ready timestamps) and its store gate,
  /// execute it, then publish when its result is usable and where fetch
  /// continues.
  void execute(const FetchedInst& fi) {
    const Instruction& in = fi.inst;
    auto& st = result_.stats;
    if (config_.collect_trace && result_.trace.size() < config_.max_trace)
      result_.trace.push_back({cycle_, fi.pc, isa::encode(in)});
    std::uint64_t start = cycle_;
    switch (in.op) {
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kLui:
      case Opcode::kJal:
        break;
      default:
        start = std::max(start, reg_ready(in.ra));
        if ((in.op >= Opcode::kAdd && in.op <= Opcode::kMul) ||
            isa::is_cond_branch(in.op))
          start = std::max(start, reg_ready(in.rb));
        if (isa::is_store(in.op)) start = std::max(start, reg_ready(in.rd));
        break;
    }
    if (isa::is_store(in.op) && fi.store_gate > start) {
      st.store_gate_stalls += fi.store_gate - start;
      start = fi.store_gate;
    }
    st.exec_stall_cycles += start - cycle_;

    const StepOutcome out = core_.step(in, fi.pc);
    const std::uint64_t duration =
        in.op == Opcode::kMul ? config_.mul_latency : 1;
    if (isa::writes_rd(in.op))
      reg_ready_[in.rd] =
          start + (isa::is_load(in.op) ? config_.load_latency : duration);
    switch (out.kind) {
      case StepOutcome::Kind::kNext:
        break;
      case StepOutcome::Kind::kTaken:
        // A taken branch squashes the fall-through speculation; fetch
        // already followed a direct jump unless it could not.
        if (in.op != Opcode::kJal || !fi.fetch_redirected) {
          queue_.clear();
          fetch_->redirect(out.target, fi.pc, start + config_.redirect_bubble,
                           /*indirect=*/in.op == Opcode::kJalr && !isa::is_ret(in));
        }
        break;
      case StepOutcome::Kind::kHalt:
        finish(RunResult::Status::kHalted, start + 1);
        return;
      case StepOutcome::Kind::kExit:
        finish(RunResult::Status::kExited, start + 1);
        return;
      case StepOutcome::Kind::kFault:
        result_.fault = out.fault;
        finish(RunResult::Status::kFault, start);
        return;
    }
    busy_until_ = start + duration;
  }

  void collect_stats() {
    auto& st = result_.stats;
    st.icache_hits = icache_.hits();
    st.icache_misses = icache_.misses();
    st.fetch_words = fetch_->words_delivered;
    st.mac_words = fetch_->mac_words_seen;
    st.ctr_ops = fetch_->ctr_ops;
    st.cbc_ops = fetch_->cbc_ops;
    st.blocks_fetched = fetch_->blocks;
    st.mac_verifications = fetch_->verifications;
  }

  const SimConfig& config_;
  RunResult result_;
  Core core_;
  ICache icache_;
  CipherEngine engine_;
  std::unique_ptr<FetchUnit> fetch_;
  std::deque<FetchedInst> queue_;
  std::uint64_t reg_ready_[isa::kNumRegs] = {};
  std::uint64_t cycle_ = 0;
  std::uint64_t busy_until_ = 0;
  bool done_ = false;
};

}  // namespace

RunResult run_image(const assembler::LoadImage& image, const SimConfig& config) {
  Machine machine(image, config);
  return machine.run();
}

}  // namespace sofia::sim
