#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "sim/cipher_engine.hpp"
#include "sim/icache.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sofia::sim {
namespace {

// ---------------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------------

TEST(Memory, ByteHalfWordRoundTrip) {
  Memory mem;
  mem.store32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(mem.load32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(mem.load8(0x1000), 0xEFu);   // little-endian
  EXPECT_EQ(mem.load8(0x1003), 0xDEu);
  EXPECT_EQ(mem.load16(0x1002), 0xDEADu);
  mem.store8(0x1001, 0x00);
  EXPECT_EQ(mem.load32(0x1000), 0xDEAD00EFu);
}

TEST(Memory, UntouchedMemoryReadsZero) {
  Memory mem;
  EXPECT_EQ(mem.load32(0x123456), 0u);
}

TEST(Memory, CrossPageAccess) {
  Memory mem;
  mem.store32(0x0FFE, 0x11223344);  // straddles a 4 KiB page boundary
  EXPECT_EQ(mem.load32(0x0FFE), 0x11223344u);
  EXPECT_EQ(mem.load16(0x1000), 0x1122u);
}

TEST(Memory, LoadImagePlacesSections) {
  assembler::LoadImage img;
  img.text_base = 0;
  img.text = {0xAAAAAAAA, 0xBBBBBBBB};
  img.data_base = 0x100000;
  img.data = {1, 2, 3};
  Memory mem;
  mem.load_image(img);
  EXPECT_EQ(mem.load32(0), 0xAAAAAAAAu);
  EXPECT_EQ(mem.load32(4), 0xBBBBBBBBu);
  EXPECT_EQ(mem.load8(0x100002), 3u);
}

TEST(Memory, MatchesAByteMapReference) {
  // A seeded mix of 8/16/32-bit accesses against a byte map composed
  // little-endian with 32-bit wrap-around. The addresses favour page
  // boundaries, the top of the address space and pages far apart (each in
  // its own 4 MiB table region), and many reads land on untouched pages.
  std::map<std::uint32_t, std::uint8_t> ref;
  const auto ref_load = [&](std::uint32_t addr, unsigned size) {
    std::uint32_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
      const auto it = ref.find(addr + i);
      if (it != ref.end()) value |= static_cast<std::uint32_t>(it->second) << (8 * i);
    }
    return value;
  };
  const std::uint32_t bases[] = {0x0, 0x1000, 0x100000, 0x1FF000, 0x3FF000,
                                 0x400000, 0x7FFFF000, 0xFFFFF000};
  Rng rng(2024);
  Memory mem;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t addr =
        bases[rng.next_below(std::size(bases))] +
        static_cast<std::uint32_t>(rng.next_below(4) == 0 ? rng.next_below(0x2000)
                                                          : 0xFF8 + rng.next_below(16));
    const unsigned size = 1u << rng.next_below(3);
    if (rng.next_below(2) == 0) {
      const auto value = static_cast<std::uint32_t>(rng.next_u32());
      for (unsigned b = 0; b < size; ++b)
        ref[addr + b] = static_cast<std::uint8_t>(value >> (8 * b));
      if (size == 1) mem.store8(addr, static_cast<std::uint8_t>(value));
      if (size == 2) mem.store16(addr, static_cast<std::uint16_t>(value));
      if (size == 4) mem.store32(addr, value);
    } else {
      const std::uint32_t got = size == 1   ? mem.load8(addr)
                                : size == 2 ? mem.load16(addr)
                                            : mem.load32(addr);
      ASSERT_EQ(got, ref_load(addr, size)) << "load" << 8 * size << " @" << addr;
    }
  }
  // The top-of-space wrap: the last two bytes, then address 0 and 1.
  mem.store32(0xFFFFFFFE, 0xA1B2C3D4);
  EXPECT_EQ(mem.load16(0xFFFFFFFE), 0xC3D4u);
  EXPECT_EQ(mem.load16(0), 0xA1B2u);
  EXPECT_EQ(mem.load32(0xFFFFFFFE), 0xA1B2C3D4u);
  EXPECT_EQ(mem.load32(0xFFFFFFFF), 0x00A1B2C3u | (std::uint32_t{mem.load8(2)} << 24));
}

TEST(Memory, UntouchedPagesReadZeroAtEveryWidth) {
  // One written byte at 0x5000; every other byte reads zero, whether its
  // page was touched, never touched, or lies in an untouched table region.
  Memory mem;
  mem.store8(0x5000, 0x7F);
  struct Probe {
    std::uint32_t addr, half, word;
  };
  for (const Probe& p : {Probe{0x4FFE, 0, 0x7F0000}, Probe{0x4FFF, 0x7F00, 0x7F00},
                         Probe{0x5FFE, 0, 0}, Probe{0xFFFFFFFE, 0, 0},
                         Probe{0x80000000, 0, 0}}) {
    EXPECT_EQ(mem.load8(p.addr), 0u) << p.addr;
    EXPECT_EQ(mem.load16(p.addr), p.half) << p.addr;
    EXPECT_EQ(mem.load32(p.addr), p.word) << p.addr;
  }
}

TEST(Memory, LoadImageSharesAPageBetweenTextAndData) {
  // Data starts mid-word inside the text's last page: both land byte
  // exact, data after text, and the rest of the page stays zero.
  assembler::LoadImage img;
  img.text_base = 0x2FF8;
  img.text = {0x11111111, 0x22222222, 0x33333333, 0x44444444, 0x55555555};
  img.data_base = 0x3009;
  img.data = {0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5};
  Memory mem;
  mem.load_image(img);
  EXPECT_EQ(mem.load32(0x2FF8), 0x11111111u);
  EXPECT_EQ(mem.load32(0x2FFC), 0x22222222u);
  EXPECT_EQ(mem.load32(0x3000), 0x33333333u);  // the copy crossed a page
  EXPECT_EQ(mem.load32(0x3004), 0x44444444u);
  EXPECT_EQ(mem.load32(0x3008), 0xA2A1A055u);  // data over the last word
  EXPECT_EQ(mem.load32(0x300C), 0x00A5A4A3u);
  EXPECT_EQ(mem.load8(0x300F), 0u);
  EXPECT_EQ(mem.load32(0x2FF4), 0u);

  // Overlapping sections: the data bytes win, exactly as a byte-wise copy.
  img.data_base = 0x2FFA;
  Memory over;
  over.load_image(img);
  EXPECT_EQ(over.load32(0x2FF8), 0xA1A01111u);
  EXPECT_EQ(over.load32(0x2FFC), 0xA5A4A3A2u);
}

// ---------------------------------------------------------------------------
// I-cache.
// ---------------------------------------------------------------------------

TEST(ICache, MissThenHit) {
  CacheConfig cfg{1024, 32, 10};
  ICache cache(cfg);
  EXPECT_EQ(cache.access(0x0), 10u);
  EXPECT_EQ(cache.access(0x4), 1u);   // same line
  EXPECT_EQ(cache.access(0x1C), 1u);  // still same line
  EXPECT_EQ(cache.access(0x20), 10u);  // next line
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ICache, ConflictEviction) {
  CacheConfig cfg{1024, 32, 10};  // 32 lines
  ICache cache(cfg);
  EXPECT_EQ(cache.access(0x0), 10u);
  EXPECT_EQ(cache.access(0x0 + 1024), 10u);  // same index, different tag
  EXPECT_EQ(cache.access(0x0), 10u);         // evicted
}

TEST(ICache, RejectsBadGeometry) {
  EXPECT_THROW(ICache(CacheConfig{1000, 32, 10}), Error);
  EXPECT_THROW(ICache(CacheConfig{1024, 3, 10}), Error);
  EXPECT_THROW(ICache(CacheConfig{16, 32, 10}), Error);
}

// ---------------------------------------------------------------------------
// Cipher engine timing.
// ---------------------------------------------------------------------------

TEST(CipherEngine, AlternatingSlots) {
  CipherEngine eng(CipherTiming{2, true});
  // CTR ops start on even cycles: 0, 2, 4 -> done 2, 4, 6.
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 2u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 4u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 6u);
  // CBC ops interleave on odd cycles: 1, 3 -> done 3, 5.
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 3u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 5u);
}

TEST(CipherEngine, AlternatingRespectsEarliest) {
  CipherEngine eng(CipherTiming{2, true});
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 10), 13u);  // aligned to 11
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 10), 12u);
}

TEST(CipherEngine, DemandModeFullyPipelined) {
  CipherEngine eng(CipherTiming{2, false});
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 2u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 3u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 4u);
}

TEST(CipherEngine, LatencyConfigurable) {
  CipherEngine eng(CipherTiming{26, true});  // non-unrolled RECTANGLE
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 26u);
}

// ---------------------------------------------------------------------------
// Vanilla execution: ISA semantics through the whole pipeline.
// ---------------------------------------------------------------------------

using test::run_vanilla;

TEST(VanillaExec, HaltStatus) {
  const auto r = run_vanilla("main:\n halt\n");
  EXPECT_EQ(r.status, RunResult::Status::kHalted);
  EXPECT_GT(r.stats.cycles, 0u);
}

TEST(VanillaExec, ExitCodeViaMmio) {
  const auto r = run_vanilla(R"(
main:
  li r1, 42
  li r2, 0xFFFF0004
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kExited);
  EXPECT_EQ(r.exit_code, 42);
}

TEST(VanillaExec, ConsoleOutput) {
  const auto r = run_vanilla(R"(
main:
  li r2, 0xFFFF0000
  li r1, 'H'
  sw r1, 0(r2)
  li r1, 'i'
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.output, "Hi");
}

TEST(VanillaExec, PutIntOutput) {
  const auto r = run_vanilla(R"(
main:
  li r2, 0xFFFF0008
  li r1, -123
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.output, "-123\n");
}

TEST(VanillaExec, ArithmeticSweep) {
  const auto r = run_vanilla(R"(
main:
  li r1, 7
  li r2, -3
  add r3, r1, r2      ; 4
  sub r4, r1, r2      ; 10
  mul r5, r1, r2      ; -21
  and r6, r1, r2      ; 7 & -3 = 5
  or r7, r1, r2       ; 7 | -3 = -1
  xor r8, r1, r2      ; 7 ^ -3 = -6
  add r9, r3, r4      ; 14
  add r9, r9, r5      ; -7
  add r9, r9, r6      ; -2
  add r9, r9, r7      ; -3
  add r9, r9, r8      ; -9
  li r10, 0xFFFF0008
  sw r9, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "-9\n");
}

TEST(VanillaExec, ShiftAndCompare) {
  const auto r = run_vanilla(R"(
main:
  li r1, -16
  srai r2, r1, 2      ; -4
  srli r3, r1, 28     ; 15
  slli r4, r3, 1      ; 30
  slt r5, r1, r0      ; 1 (-16 < 0)
  sltu r6, r1, r0     ; 0 (0xFFFFFFF0 > 0 unsigned)
  add r7, r2, r3
  add r7, r7, r4
  add r7, r7, r5
  add r7, r7, r6      ; -4+15+30+1+0 = 42
  li r10, 0xFFFF0008
  sw r7, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "42\n");
}

TEST(VanillaExec, LoadStoreAllWidths) {
  const auto r = run_vanilla(R"(
main:
  la r1, buf
  li r2, 0x12345678
  sw r2, 0(r1)
  lb r3, 0(r1)        ; 0x78
  lbu r4, 3(r1)       ; 0x12
  lh r5, 0(r1)        ; 0x5678
  lhu r6, 2(r1)       ; 0x1234
  sh r5, 4(r1)
  sb r3, 6(r1)
  lw r7, 4(r1)        ; 0x00785678
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  sw r4, 0(r10)
  sw r5, 0(r10)
  sw r6, 0(r10)
  sw r7, 0(r10)
  halt
.data
buf: .space 8
)");
  EXPECT_EQ(r.output, "120\n18\n22136\n4660\n7886456\n");
}

TEST(VanillaExec, SignedLoadsSignExtend) {
  const auto r = run_vanilla(R"(
main:
  la r1, buf
  li r2, -1
  sb r2, 0(r1)
  lb r3, 0(r1)
  lbu r4, 0(r1)
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  sw r4, 0(r10)
  halt
.data
buf: .space 4
)");
  EXPECT_EQ(r.output, "-1\n255\n");
}

TEST(VanillaExec, LoopSum) {
  const auto r = run_vanilla(R"(
main:
  li r1, 0        ; sum
  li r2, 10       ; i
loop:
  add r1, r1, r2
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "55\n");
}

TEST(VanillaExec, CallAndReturn) {
  const auto r = run_vanilla(R"(
main:
  li r1, 5
  call double
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
double:
  add r1, r1, r1
  ret
)");
  EXPECT_EQ(r.output, "10\n");
}

TEST(VanillaExec, RecursiveFactorial) {
  const auto r = run_vanilla(R"(
main:
  li r1, 5
  call fact
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
fact:                     ; r2 = r1!
  li r2, 1
  ble r1, r2, done
  addi sp, sp, -8
  sw lr, 0(sp)
  sw r1, 4(sp)
  addi r1, r1, -1
  call fact
  lw r1, 4(sp)
  lw lr, 0(sp)
  addi sp, sp, 8
  mul r2, r2, r1
done:
  ret
)");
  EXPECT_EQ(r.output, "120\n");
}

TEST(VanillaExec, IndirectJumpViaRegister) {
  const auto r = run_vanilla(R"(
main:
  la r4, here
  jalr lr, r4
  halt
here:
  li r1, 9
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "9\n");
}

TEST(VanillaExec, MisalignedAccessFaults) {
  const auto r = run_vanilla(R"(
main:
  li r1, 2
  lw r2, 0(r1)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kFault);
  EXPECT_NE(r.fault.find("misaligned"), std::string::npos);
}

TEST(VanillaExec, MmioLoadFaults) {
  const auto r = run_vanilla(R"(
main:
  li r1, 0xFFFF0000
  lw r2, 0(r1)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kFault);
}

TEST(VanillaExec, MaxCyclesOnInfiniteLoop) {
  const auto prog = assembler::assemble("main:\n j main\n");
  const auto img = assembler::link_vanilla(prog);
  auto cfg = test::vanilla_config();
  cfg.max_cycles = 5000;
  const auto r = run_image(img, cfg);
  EXPECT_EQ(r.status, RunResult::Status::kMaxCycles);
}

TEST(VanillaExec, R0IsAlwaysZero) {
  const auto r = run_vanilla(R"(
main:
  addi r0, r0, 99
  li r10, 0xFFFF0008
  sw r0, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "0\n");
}

TEST(VanillaExec, StatsPopulated) {
  const auto r = run_vanilla(R"(
main:
  li r1, 3
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  EXPECT_GT(r.stats.insts, 6u);
  EXPECT_EQ(r.stats.branches, 3u);
  EXPECT_EQ(r.stats.taken, 2u);
  EXPECT_GT(r.stats.cycles, r.stats.insts);  // bubbles exist
  EXPECT_GT(r.stats.icache_misses, 0u);
}

TEST(VanillaExec, LoadUseHazardCostsCycles) {
  const auto fast = run_vanilla(R"(
main:
  la r1, buf
  lw r2, 0(r1)
  nop
  add r3, r2, r2
  halt
.data
buf: .word 7
)");
  const auto slow = run_vanilla(R"(
main:
  la r1, buf
  lw r2, 0(r1)
  add r3, r2, r2
  nop
  halt
.data
buf: .word 7
)");
  // Same instruction count; the load-use version cannot be faster.
  EXPECT_GE(slow.stats.cycles, fast.stats.cycles);
}

}  // namespace
}  // namespace sofia::sim
