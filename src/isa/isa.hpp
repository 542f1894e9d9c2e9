// SR32: the small 32-bit RISC ISA this reproduction uses in place of
// SPARCv8 (see DESIGN.md §1 for why the substitution is faithful).
//
// Fixed 32-bit instruction words, 16 registers (r0 hardwired to zero,
// r14 = sp, r15 = lr by convention; r13 is reserved by the SOFIA
// transformer as a scratch register for devirtualized indirect jumps).
// No delay slots, no register windows.
//
// Encoding (bit ranges inclusive):
//   opcode  [31:26]
//   R-type:  rd [25:22]  ra [21:18]  rb [17:14]
//   I-type:  rd [25:22]  ra [21:18]  imm14 [13:0]   (sign-extended unless noted)
//   store:   rs [25:22]  ra [21:18]  imm14 [13:0]   (rs = value, ra = base)
//   branch:  ra [25:22]  rb [21:18]  off14 [13:0]   (signed word offset)
//   JAL:     rd [25:22]  off22 [21:0]               (signed word offset)
//   LUI:     rd [25:22]  imm18 [17:0]               (rd = imm18 << 14)
//
// The all-zero word encodes NOP, so zero-initialized memory is inert.
// Logical immediates (ANDI/ORI/XORI) are zero-extended so that LUI+ORI
// composes 32-bit constants; arithmetic immediates are sign-extended.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sofia::isa {

inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kRegZero = 0;
inline constexpr unsigned kRegScratch = 13;  ///< transformer-reserved
inline constexpr unsigned kRegSp = 14;
inline constexpr unsigned kRegLr = 15;

enum class Opcode : std::uint8_t {
  kNop = 0,
  kHalt = 1,
  // R-type ALU
  kAdd = 2,
  kSub = 3,
  kAnd = 4,
  kOr = 5,
  kXor = 6,
  kSll = 7,
  kSrl = 8,
  kSra = 9,
  kSlt = 10,
  kSltu = 11,
  kMul = 12,
  // I-type ALU
  kAddi = 13,
  kAndi = 14,
  kOri = 15,
  kXori = 16,
  kSlli = 17,
  kSrli = 18,
  kSrai = 19,
  kSlti = 20,
  kSltiu = 21,
  kLui = 22,
  // Memory
  kLw = 23,
  kLh = 24,
  kLhu = 25,
  kLb = 26,
  kLbu = 27,
  kSw = 28,
  kSh = 29,
  kSb = 30,
  // Control
  kBeq = 31,
  kBne = 32,
  kBlt = 33,
  kBge = 34,
  kBltu = 35,
  kBgeu = 36,
  kJal = 37,
  kJalr = 38,
};

inline constexpr std::uint8_t kMaxOpcode = 38;

/// A decoded instruction. `imm` holds the sign- or zero-extended immediate
/// (word offsets for branches/JAL, raw 18-bit value for LUI).
struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Encode to a 32-bit word. Throws sofia::Error if a field is out of range.
std::uint32_t encode(const Instruction& inst);

/// Decode a word; nullopt when the opcode is not defined (possible for
/// garbage produced by a CFI decryption error).
std::optional<Instruction> decode(std::uint32_t word);

// ---- instruction classes -------------------------------------------------

constexpr bool is_store(Opcode op) {
  return op == Opcode::kSw || op == Opcode::kSh || op == Opcode::kSb;
}

constexpr bool is_load(Opcode op) {
  return op >= Opcode::kLw && op <= Opcode::kLbu;
}

/// Conditional branches (two successors).
constexpr bool is_cond_branch(Opcode op) {
  return op >= Opcode::kBeq && op <= Opcode::kBgeu;
}

constexpr bool is_jump(Opcode op) {
  return op == Opcode::kJal || op == Opcode::kJalr;
}

/// Exit-class: may only occupy the last instruction slot of a SOFIA block
/// ("control can only exit at inst_n", paper §II-B-1).
constexpr bool is_control(Opcode op) {
  return is_cond_branch(op) || is_jump(op) || op == Opcode::kHalt;
}

/// The canonical return, `ret` (jalr r0, lr, 0).
constexpr bool is_ret(const Instruction& inst) {
  return inst.op == Opcode::kJalr && inst.rd == kRegZero && inst.ra == kRegLr &&
         inst.imm == 0;
}

/// Does this instruction write rd? (Stores and branches do not.)
constexpr bool writes_rd(Opcode op) {
  return !(op == Opcode::kNop || op == Opcode::kHalt || is_store(op) ||
           is_cond_branch(op));
}

std::string_view mnemonic(Opcode op);

/// Canonical register name ("r7", with "sp"/"lr" for r14/r15).
std::string_view reg_name(unsigned reg);

}  // namespace sofia::isa
