// Random SR32 program generator for property-based tests.
//
// Programs terminate by construction: conditional branches only jump
// forward between segments, loops are bounded counted loops on a dedicated
// register, and calls target non-recursive leaf functions. Every program
// ends by printing r1..r8 (so any architectural divergence is observable)
// and halting. Registers r1..r8 and the 64-byte r9 buffer start with
// random values of either sign.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace sofia::test {

struct GeneratorOptions {
  int min_segments = 3;
  int max_segments = 8;
  int max_insts_per_segment = 6;
  int max_functions = 3;
  bool allow_loops = true;
  bool allow_stores = true;
};

inline std::string random_program(Rng& rng, const GeneratorOptions& opts = {}) {
  const int segments = static_cast<int>(
      rng.next_range(opts.min_segments, opts.max_segments));
  const int functions = static_cast<int>(rng.next_range(0, opts.max_functions));

  auto reg = [&rng]() { return "r" + std::to_string(rng.next_range(1, 8)); };
  auto imm = [&rng]() { return std::to_string(rng.next_range(-100, 100)); };
  // A full-width or a small signed value, so signed and unsigned compares,
  // sign-extending loads and shifts all see both signs.
  auto value = [&rng]() {
    return std::to_string(rng.next_bool() ? rng.next_u32()
                                          : static_cast<std::uint32_t>(
                                                rng.next_range(-100, 100)));
  };

  auto pick = [&rng](std::initializer_list<const char*> ops) {
    return std::string(ops.begin()[rng.next_below(ops.size())]);
  };
  // A load or store on the 64-byte r9 buffer, aligned to its width.
  auto mem_op = [&](std::initializer_list<const char*> ops) {
    const std::string op = pick(ops);
    const long long width = op == "lw" || op == "sw" ? 4 : op[1] == 'h' ? 2 : 1;
    return "  " + op + " " + reg() + ", " +
           std::to_string(width * rng.next_range(0, 64 / width - 1)) + "(r9)\n";
  };

  // Every ALU op, every load and store width and calls. Stores come last
  // so allow_stores = false simply narrows the draw.
  auto random_inst = [&](bool in_function) {
    switch (rng.next_below(opts.allow_stores ? 9 : 8)) {
      case 0:
      case 1:
      case 2:
        return "  " +
               pick({"add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
                     "sltu", "mul"}) +
               " " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 3:
        return "  " + pick({"addi", "slti", "sltiu"}) + " " + reg() + ", " + reg() +
               ", " + imm() + "\n";
      case 4:  // logical immediates are zero-extended
        return "  " + pick({"andi", "ori", "xori"}) + " " + reg() + ", " + reg() +
               ", " + std::to_string(rng.next_range(0, 4095)) + "\n";
      case 5:
        return "  " + pick({"slli", "srli", "srai"}) + " " + reg() + ", " + reg() +
               ", " + std::to_string(rng.next_range(0, 31)) + "\n";
      case 6:
        return mem_op({"lw", "lh", "lhu", "lb", "lbu"});
      case 8:
        return mem_op({"sw", "sh", "sb"});
      default:
        // Calls only from main (leaf functions stay leaves).
        if (in_function || functions == 0)
          return "  addi " + reg() + ", " + reg() + ", 1\n";
        return "  call fn" + std::to_string(rng.next_range(0, functions - 1)) +
               "\n";
    }
  };

  std::string src = "main:\n  la r9, buf\n";
  for (int r = 1; r <= 8; ++r)
    src += "  li r" + std::to_string(r) + ", " + value() + "\n";
  // A bounded loop around the whole body exercises backward edges.
  const bool looped = opts.allow_loops && rng.next_bool(0.6);
  if (looped) {
    src += "  li r11, " + std::to_string(rng.next_range(2, 5)) + "\n";
    src += "mainloop:\n";
  }
  for (int s = 0; s < segments; ++s) {
    src += "seg" + std::to_string(s) + ":\n";
    const int count = static_cast<int>(rng.next_range(1, opts.max_insts_per_segment));
    for (int i = 0; i < count; ++i) src += random_inst(false);
    // Optional forward conditional branch (termination-safe).
    if (s + 2 < segments && rng.next_bool(0.5)) {
      const long long target = rng.next_range(s + 1, segments - 1);
      src += "  " + pick({"beq", "bne", "blt", "bge", "bltu", "bgeu"}) + " " + reg() +
             ", " + reg() + ", seg" + std::to_string(target) + "\n";
    }
  }
  src += "seg" + std::to_string(segments) + ":\n";
  if (looped) {
    src += "  addi r11, r11, -1\n  bnez r11, mainloop\n";
  }
  // Observable epilogue: dump r1..r8.
  src += "  li r10, 0xFFFF0008\n";
  for (int r = 1; r <= 8; ++r)
    src += "  sw r" + std::to_string(r) + ", 0(r10)\n";
  src += "  halt\n";

  for (int f = 0; f < functions; ++f) {
    src += "fn" + std::to_string(f) + ":\n";
    const int count = static_cast<int>(rng.next_range(1, 5));
    for (int i = 0; i < count; ++i) src += random_inst(true);
    // Some functions get an early-exit branch to test multi-ret merging.
    if (rng.next_bool(0.4)) {
      src += "  beqz " + reg() + ", fn" + std::to_string(f) + "_alt\n";
      src += "  ret\n";
      src += "fn" + std::to_string(f) + "_alt:\n";
      src += random_inst(true);
    }
    src += "  ret\n";
  }
  src += ".data\nbuf: .word " + value();
  for (int w = 1; w < 16; ++w) src += ", " + value();
  src += "\n";
  return src;
}

}  // namespace sofia::test
