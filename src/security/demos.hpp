// The code-reuse demonstrations of paper §IV-A-2, run on both cores. Each
// victim reads an attacker-controlled data word (offset 0 of .data) and
// transfers control through it; the attacker aims it at a store "gadget"
// that must never execute (the paper's disable-the-brakes store). The
// attack is one campaign kRetargetIndirect record at data offset 0, run
// through campaign::Target on the vanilla image (the gadget fires) and on
// the hardened image (SOFIA stops it before the store).
#pragma once

#include "crypto/key_set.hpp"
#include "sim/config.hpp"

namespace sofia::security {

/// Clean and attacked runs of one demo victim on both cores.
struct CodeReuseDemo {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;  ///< the gadget fires
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;    ///< the gadget never runs
};

/// ROP: `vuln` returns through an address loaded from attacker input (a
/// stack smash), aimed at the base of the gadget's block. The vanilla core
/// prints 6666; SOFIA resets before the gadget's store reaches the MA stage.
CodeReuseDemo run_rop_demo(const crypto::KeySet& keys);

/// JOP: the victim dispatches through a function-pointer table in writable
/// data, annotated with its two legitimate handlers; the attacker points
/// the first entry at the gadget's placed address. The vanilla core prints
/// 7777; on SOFIA the devirtualized dispatch finds no listed target and
/// falls into its halt trap before any gadget instruction executes.
CodeReuseDemo run_jop_demo(const crypto::KeySet& keys);

}  // namespace sofia::security
