// The fast functional backend: executes the same ISA and enforces the
// same SOFIA integrity semantics as the cycle-accurate machine — every
// entered block is fetched, decrypted with its control-flow-dependent
// counters, its run-time CBC-MAC compared against the stored tag, and
// the placement rules (entry offset, exit slot, restricted stores)
// checked in the same order, with any violation pulling the reset line —
// but it models no micro-architecture: no I-cache, no fetch queue, no
// cipher-engine scheduling, no store gate. Control flow is purely
// architectural (no fall-through speculation), and blocks that verified
// once are cached by (entry word, prevPC) so loop bodies decrypt and MAC
// exactly once; each cached block links to its last successor, so a
// steady-state loop skips the cache lookup too. Instructions run through
// the shared SR32 step and blocks through the shared per-word check
// (sim/core.hpp), the same code the cycle machine uses.
//
// Consequences, documented as contract:
//  * stats.cycles is the retired instruction count (capabilities()
//    advertises cycle_accurate = false); SimConfig::max_cycles bounds it.
//  * Without an armed fault, stats counts only architecturally demanded
//    work: ctr/cbc ops and verifications for blocks actually entered, once
//    per distinct (entry, prevPC) pair — a lower bound on what the device
//    performs.
//  * Fault injection (SimConfig::fault) flips the N-th word this backend
//    fetches, counting every block entry's words as if it refetched them.
//    A cached block is reused whenever the armed flip cannot land in the
//    words it fetches (the fetch counter advances past them); the one
//    block whose fetch takes the flip is opened fresh and never cached.
//    While a fault is armed every entry also counts the work of an open,
//    so stats and verdicts equal those of a run that refetches each block.
//  * Stores into the text section (or any word a block was fetched from)
//    invalidate the block cache and its successor links, so
//    self-modifying (i.e. self-tampering) code still resets exactly like
//    the live-fetching cycle machine.
#pragma once

#include "sim/backend.hpp"

namespace sofia::sim {

inline constexpr std::string_view kFunctionalBackendDescription =
    "architectural interpreter, full integrity checks, no timing";

class FunctionalBackend final : public Backend {
 public:
  std::string_view name() const override { return "functional"; }
  std::string_view describe() const override {
    return kFunctionalBackendDescription;
  }
  BackendCapabilities capabilities() const override {
    return {/*cycle_accurate=*/false, /*models_microarchitecture=*/false};
  }
  RunResult run(const assembler::LoadImage& image,
                const SimConfig& config) const override;
};

}  // namespace sofia::sim
