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
// exactly once. Instructions run through the shared SR32 step and blocks
// through the shared per-word check (sim/core.hpp), the same code the
// cycle machine uses.
//
// Consequences, documented as contract:
//  * stats.cycles is the retired instruction count (capabilities()
//    advertises cycle_accurate = false); SimConfig::max_cycles bounds it.
//  * stats counts only architecturally demanded work: ctr/cbc ops and
//    verifications for blocks actually entered, once per distinct
//    (entry, prevPC) pair — a lower bound on what the device performs.
//  * Fault injection (SimConfig::fault) flips the N-th word this backend
//    fetches; the block cache is bypassed while a fault is armed so every
//    block entry refetches.
//  * Stores into the text section invalidate the block cache, so
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
