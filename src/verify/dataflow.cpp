#include "verify/dataflow.hpp"

#include <array>
#include <optional>
#include <set>
#include <utility>

#include "cfg/cfg.hpp"
#include "isa/isa.hpp"

namespace sofia::verify::dataflow {

namespace {

using State = std::array<AbsVal, isa::kNumRegs>;

/// Inner-fixpoint widening delay: joins into a block entry beyond this
/// count switch from plain join to threshold widening.
constexpr std::uint32_t kWidenAfter = 3;

/// Enumeration budgets: addresses a load may resolve through, addresses a
/// store may dirty individually (beyond it the whole data section goes
/// dirty), and values an indirect target set may enumerate to.
constexpr std::size_t kMaxLoadAddrs = 16;
constexpr std::size_t kMaxStoreAddrs = 64;

/// Outer dirty-set rounds before the sound fallback (all data dirty).
constexpr std::uint32_t kMaxRounds = 4;

std::uint8_t access_size(isa::Opcode op) {
  switch (op) {
    case isa::Opcode::kLw:
    case isa::Opcode::kSw: return 4;
    case isa::Opcode::kLh:
    case isa::Opcode::kLhu:
    case isa::Opcode::kSh: return 2;
    default: return 1;
  }
}

class Engine {
 public:
  explicit Engine(const ProgramModel& m)
      : m_(m),
        b_(m.policy.words_per_block),
        text_base_word_(m.text_base / 4),
        data_limit_(m.data_base +
                    static_cast<std::uint32_t>(m.data.size())),
        dirty_(m.data.size(), false) {
    // Decode every block once; an undecodable or missing word simply
    // havocs the state at that point (check_static attributes it).
    code_.resize(m_.blocks.size());
    for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
      code_[i].reserve(m_.blocks[i].inst_words.size());
      for (const std::uint32_t w : m_.blocks[i].inst_words)
        code_[i].push_back(isa::decode(w));
    }
    // Widening thresholds: the section boundaries, so a widened pointer
    // still proves "below text" / "inside data" instead of jumping to top.
    const std::set<std::uint32_t> t = {
        0u, m_.text_base, m_.text_base + m_.total_words() * 4,
        m_.data_base, data_limit_, m_.stack_top};
    thresholds_.assign(t.begin(), t.end());
  }

  DataflowResult run() {
    DataflowResult result;
    if (m_.blocks.empty()) return result;
    const auto entry_block = block_at(m_.entry);
    if (!entry_block) return result;  // metadata errors flagged elsewhere

    std::uint32_t round = 0;
    for (;;) {
      ++round;
      fixpoint(*entry_block);
      auto facts = collect_facts();
      const bool grew = grow_dirty(facts.first);
      if (grew && round < kMaxRounds) continue;
      if (grew) {
        // Did not stabilize within budget: sound fallback — treat the whole
        // data section as dirty and take the resulting facts.
        dirty_all_ = true;
        ++round;
        fixpoint(*entry_block);
        facts = collect_facts();
      }
      result.rounds = round;
      result.stores = std::move(facts.first);
      result.indirects = std::move(facts.second);
      break;
    }
    result.transfers = transfers_;
    return result;
  }

 private:
  // ---- address mapping -----------------------------------------------------

  std::optional<std::uint32_t> block_at(std::uint64_t byte_addr) const {
    if (byte_addr % 4 != 0) return std::nullopt;
    const std::uint64_t word = byte_addr / 4;
    if (word < text_base_word_) return std::nullopt;
    const std::uint64_t rel = word - text_base_word_;
    const std::uint64_t blk = rel / b_;
    if (blk >= m_.blocks.size()) return std::nullopt;
    return static_cast<std::uint32_t>(blk);
  }

  // ---- load resolution -----------------------------------------------------

  /// `addr` lies inside the data section (load_value checks first).
  bool byte_dirty(std::uint32_t addr) const {
    return dirty_all_ || dirty_[addr - m_.data_base];
  }

  std::uint32_t read_init(std::uint32_t addr, std::uint8_t size) const {
    std::uint32_t v = 0;
    for (std::uint8_t k = 0; k < size; ++k)
      v |= static_cast<std::uint32_t>(m_.data[addr - m_.data_base + k])
           << (8 * k);
    return v;
  }

  AbsVal load_value(isa::Opcode op, const AbsVal& addr) const {
    const std::uint8_t size = access_size(op);
    if (const auto addrs = addr.enumerate(kMaxLoadAddrs)) {
      std::vector<std::uint32_t> values;
      values.reserve(addrs->size());
      bool resolved = true;
      for (const std::uint32_t a : *addrs) {
        if (a % size != 0 || a < m_.data_base ||
            std::uint64_t{a} + size > data_limit_) {
          resolved = false;  // outside the initial data section
          break;
        }
        bool dirty = false;
        for (std::uint8_t k = 0; k < size; ++k)
          if (byte_dirty(a + k)) dirty = true;
        if (dirty) {
          resolved = false;
          break;
        }
        std::uint32_t v = read_init(a, size);
        if (op == isa::Opcode::kLb)
          v = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
        else if (op == isa::Opcode::kLh)
          v = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
        values.push_back(v);
      }
      if (resolved) return AbsVal::consts(std::move(values));
    }
    // Unresolvable: the zero-extending loads still have hard value bounds.
    switch (op) {
      case isa::Opcode::kLbu: return AbsVal::interval(0, 0xFF);
      case isa::Opcode::kLhu: return AbsVal::interval(0, 0xFFFF);
      default: return AbsVal::top();
    }
  }

  // ---- transfer functions --------------------------------------------------

  static const AbsVal& reg(const State& s, unsigned r) { return s[r]; }

  static void set_reg(State& s, unsigned r, AbsVal v) {
    if (r != isa::kRegZero) s[r] = std::move(v);
  }

  /// Apply one instruction to the state (no control effect).
  void step(State& s, const isa::Instruction& in, std::uint32_t word_addr) {
    ++transfers_;
    using isa::Opcode;
    const AbsVal& a = reg(s, in.ra);
    const AbsVal& bv = reg(s, in.rb);
    const auto uimm = static_cast<std::uint32_t>(in.imm);
    const AbsVal immv = AbsVal::constant(uimm);
    switch (in.op) {
      case Opcode::kAdd: set_reg(s, in.rd, AbsVal::add(a, bv)); break;
      case Opcode::kSub: set_reg(s, in.rd, AbsVal::sub(a, bv)); break;
      case Opcode::kAnd: set_reg(s, in.rd, AbsVal::and_(a, bv)); break;
      case Opcode::kOr: set_reg(s, in.rd, AbsVal::or_(a, bv)); break;
      case Opcode::kXor: set_reg(s, in.rd, AbsVal::xor_(a, bv)); break;
      case Opcode::kSll: set_reg(s, in.rd, AbsVal::shl(a, bv)); break;
      case Opcode::kSrl: set_reg(s, in.rd, AbsVal::shr(a, bv)); break;
      case Opcode::kMul: set_reg(s, in.rd, AbsVal::mul(a, bv)); break;
      case Opcode::kAddi:
        // Negative immediates are 2^32 - |imm| after the unsigned cast;
        // model them as subtraction so interval shapes survive.
        if (in.imm < 0)
          set_reg(s, in.rd,
                  AbsVal::sub(a, AbsVal::constant(
                                     static_cast<std::uint32_t>(-in.imm))));
        else
          set_reg(s, in.rd, AbsVal::add(a, immv));
        break;
      case Opcode::kAndi: set_reg(s, in.rd, AbsVal::and_(a, immv)); break;
      case Opcode::kOri: set_reg(s, in.rd, AbsVal::or_(a, immv)); break;
      case Opcode::kXori: set_reg(s, in.rd, AbsVal::xor_(a, immv)); break;
      case Opcode::kSlli: set_reg(s, in.rd, AbsVal::shl(a, immv)); break;
      case Opcode::kSrli: set_reg(s, in.rd, AbsVal::shr(a, immv)); break;
      case Opcode::kLui:
        set_reg(s, in.rd, AbsVal::constant(uimm << 14));
        break;
      case Opcode::kSlt:
      case Opcode::kSltu:
      case Opcode::kSlti:
      case Opcode::kSltiu:
        set_reg(s, in.rd, AbsVal::interval(0, 1));
        break;
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        set_reg(s, in.rd, load_value(in.op, AbsVal::add(a, immv)));
        break;
      case Opcode::kJal:
      case Opcode::kJalr:
        // Link register: the concrete return address.
        set_reg(s, in.rd, AbsVal::constant(word_addr * 4 + 4));
        break;
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        break;  // no register effect
      default:
        set_reg(s, in.rd, AbsVal::top());  // kSra/kSrai and anything new
        break;
    }
  }

  /// Run the whole block's instructions from its (fixed) entry state;
  /// optionally collect store/indirect facts along the way.
  State transfer_block(std::uint32_t i, std::vector<StoreFact>* stores,
                       std::vector<IndirectFact>* indirects) {
    const ModelBlock& blk = m_.blocks[i];
    State s = entry_[i];
    const std::uint32_t header =
        b_ - static_cast<std::uint32_t>(blk.inst_words.size());
    for (std::size_t k = 0; k < code_[i].size(); ++k) {
      const std::uint32_t word_addr =
          blk.base_word + header + static_cast<std::uint32_t>(k);
      const auto& inst = code_[i][k];
      if (!inst) {
        // Undecodable word: havoc everything except the zero register.
        for (unsigned r = 1; r < isa::kNumRegs; ++r) s[r] = AbsVal::top();
        continue;
      }
      if (isa::is_store(inst->op)) {
        const AbsVal addr = AbsVal::add(
            reg(s, inst->ra),
            AbsVal::constant(static_cast<std::uint32_t>(inst->imm)));
        if (stores)
          stores->push_back(
              StoreFact{i, word_addr, access_size(inst->op), addr});
      } else if (inst->op == isa::Opcode::kJalr && !isa::is_ret(*inst)) {
        // The hardware clears the two low bits of the computed target.
        AbsVal target = AbsVal::add(
            reg(s, inst->ra),
            AbsVal::constant(static_cast<std::uint32_t>(inst->imm)));
        if (const auto vals = target.enumerate(kMaxStoreAddrs)) {
          std::vector<std::uint32_t> cleared;
          cleared.reserve(vals->size());
          for (const std::uint32_t v : *vals) cleared.push_back(v & ~3u);
          target = AbsVal::consts(std::move(cleared));
        }
        if (indirects) indirects->push_back(IndirectFact{i, word_addr, target});
      }
      step(s, *inst, word_addr);
    }
    return s;
  }

  // ---- the worklist fixpoint -----------------------------------------------

  void propagate(std::uint32_t to, const State& incoming) {
    State& cur = entry_[to];
    bool changed = false;
    const bool widen = joins_[to] >= kWidenAfter;
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
      // join(a, a) == a for every kind (an interval's stride is
      // gcd(s, s, 0) = s), and widen returns prev when the join equals it,
      // so an equal operand can never change the entry: skipping it leaves
      // every state, join count and the worklist order exactly as they were.
      if (incoming[r] == cur[r]) continue;
      AbsVal next = widen ? AbsVal::widen(cur[r], incoming[r], thresholds_)
                          : AbsVal::join(cur[r], incoming[r]);
      if (!(next == cur[r])) {
        cur[r] = std::move(next);
        changed = true;
      }
    }
    if (!reachable_[to]) {
      reachable_[to] = true;
      changed = true;
    }
    if (changed) {
      ++joins_[to];
      if (!queued_[to]) {
        queued_[to] = true;
        worklist_.push_back(to);
      }
    }
  }

  void flow_to(std::uint64_t byte_addr, const State& out) {
    if (const auto blk = block_at(byte_addr)) propagate(*blk, out);
  }

  void fixpoint(std::uint32_t entry_block) {
    entry_.assign(m_.blocks.size(), State{});
    reachable_.assign(m_.blocks.size(), false);
    queued_.assign(m_.blocks.size(), false);
    joins_.assign(m_.blocks.size(), 0);
    worklist_.clear();

    // Architectural reset state: sp holds the image's stack top, the zero
    // register is zero, everything else is unconstrained.
    State boot;
    boot.fill(AbsVal::top());
    boot[isa::kRegZero] = AbsVal::constant(0);
    boot[isa::kRegSp] = AbsVal::constant(m_.stack_top);
    propagate(entry_block, boot);

    while (!worklist_.empty()) {
      const std::uint32_t i = worklist_.back();
      worklist_.pop_back();
      queued_[i] = false;
      const ModelBlock& blk = m_.blocks[i];
      const State out = transfer_block(i, nullptr, nullptr);
      if (code_[i].empty()) continue;
      const auto& exit_inst = code_[i].back();
      const std::int64_t exit_word = blk.base_word + b_ - 1;
      const std::int64_t fall = (blk.base_word + b_) * std::int64_t{4};
      if (!exit_inst) continue;  // undecodable exit: no known successors
      const isa::Instruction& in = *exit_inst;
      if (isa::is_cond_branch(in.op)) {
        flow_to((exit_word + in.imm) * 4, out);
        flow_to(fall, out);
      } else if (in.op == isa::Opcode::kJal) {
        flow_to((exit_word + in.imm) * 4, out);
      } else if (in.op == isa::Opcode::kJalr) {
        if (isa::is_ret(in)) {
          for (const std::uint32_t target : blk.ret_targets)
            flow_to(target, out);
        } else {
          for (const std::uint32_t target : blk.jalr_targets)
            flow_to(target, out);
        }
      } else if (in.op != isa::Opcode::kHalt) {
        flow_to(fall, out);
      }
    }
  }

  /// Replay every reachable block against its fixed entry state, collecting
  /// facts in deterministic (block, word) order.
  std::pair<std::vector<StoreFact>, std::vector<IndirectFact>>
  collect_facts() {
    std::vector<StoreFact> stores;
    std::vector<IndirectFact> indirects;
    for (std::uint32_t i = 0; i < m_.blocks.size(); ++i)
      if (reachable_[i]) transfer_block(i, &stores, &indirects);
    return {std::move(stores), std::move(indirects)};
  }

  /// Grow the dirty byte set from this round's store facts; returns true
  /// when the set grew (another round is needed).
  bool grow_dirty(const std::vector<StoreFact>& stores) {
    if (dirty_all_ || m_.data.empty()) return false;
    bool grew = false;
    for (const StoreFact& st : stores) {
      if (st.addr.proven_outside(m_.data_base, data_limit_)) continue;
      const auto addrs = st.addr.enumerate(kMaxStoreAddrs);
      if (!addrs) {
        // Unbounded store overlapping data: everything is dirty.
        dirty_all_ = true;
        return true;
      }
      for (const std::uint32_t a : *addrs)
        for (std::uint8_t k = 0; k < st.size; ++k) {
          const std::uint32_t byte = a + k;
          if (byte >= m_.data_base && byte < data_limit_ &&
              !dirty_[byte - m_.data_base]) {
            dirty_[byte - m_.data_base] = true;
            grew = true;
          }
        }
    }
    return grew;
  }

  const ProgramModel& m_;
  const std::uint32_t b_;
  const std::uint32_t text_base_word_;
  const std::uint32_t data_limit_;
  std::vector<std::vector<std::optional<isa::Instruction>>> code_;
  std::vector<std::uint32_t> thresholds_;

  std::vector<State> entry_;
  std::vector<bool> reachable_;
  std::vector<bool> queued_;
  std::vector<std::uint32_t> joins_;
  std::vector<std::uint32_t> worklist_;

  /// Dirty initial-data bytes, indexed by address - data_base.
  std::vector<bool> dirty_;
  bool dirty_all_ = false;
  std::uint64_t transfers_ = 0;
};

}  // namespace

DataflowResult analyze(const ProgramModel& m) { return Engine(m).run(); }

}  // namespace sofia::verify::dataflow
