#include "security/demos.hpp"

#include "assembler/link.hpp"
#include "campaign/campaign.hpp"

namespace sofia::security {

namespace {

// attacker_input == 0 means benign input; `mv lr, r3` is the smashed
// return address.
constexpr char kRopVictim[] = R"(
main:
  call vuln
  li r10, 0xFFFF0008
  li r1, 1111
  sw r1, 0(r10)
  halt
vuln:
  la r2, attacker_input
  lw r3, 0(r2)
  beqz r3, benign
  mv lr, r3          ; smashed return address
benign:
  ret
gadget:              ; the "disable the brakes" store (paper §II-B-2)
  li r10, 0xFFFF0008
  li r1, 6666
  sw r1, 0(r10)
  halt
.data
attacker_input: .word 0
)";

// Handler pointers live in writable data; the dispatch is annotated with
// the two legitimate handlers only.
constexpr char kJopVictim[] = R"(
main:
  la r2, table
  lw r4, 0(r2)        ; select handler 0
  li r1, 5
  .targets inc, dec
  jalr lr, r4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
inc:
  addi r1, r1, 1
  ret
dec:
  addi r1, r1, -1
  ret
gadget:
  li r10, 0xFFFF0008
  li r1, 7777
  sw r1, 0(r10)
  halt
.data
table: .word inc, dec
)";

campaign::MutationRecord aim_at(std::uint32_t gadget_addr) {
  return {{campaign::MutationKind::kRetargetIndirect, 0, gadget_addr}};
}

/// `aim_block_base`: on SOFIA, aim at the base of the gadget's block (the
/// ROP return) rather than its placed address (the JOP table entry, the
/// same value `la` would materialize).
CodeReuseDemo run_demo(const char* source, const crypto::KeySet& keys,
                       bool aim_block_base) {
  // The historical demos ran with Alg. 1's per-word CTR.
  auto profile = pipeline::DeviceProfile::with_keys(keys);
  profile.granularity = crypto::Granularity::kPerWord;
  auto target = campaign::Target::from_source(
      source, profile, campaign::CampaignSpec{}.donor_omega);
  auto& session = target.session();

  CodeReuseDemo demo;
  demo.vanilla_clean = session.run_vanilla();
  demo.vanilla_attacked = target.run_vanilla(
      aim_at(assembler::resolve_vanilla(session.program(), {}, "gadget")));

  // The attacker knows the transformed layout (Kerckhoffs).
  const auto& hardened = session.hardened();
  const std::uint32_t gadget = hardened.normalized.text_labels.at("gadget");
  demo.sofia_clean = target.clean_run();
  demo.sofia_attacked = target.run(
      aim_at(aim_block_base ? hardened.layout.block_base_addr(gadget)
                            : hardened.layout.placed_addr(gadget)));
  return demo;
}

}  // namespace

CodeReuseDemo run_rop_demo(const crypto::KeySet& keys) {
  return run_demo(kRopVictim, keys, /*aim_block_base=*/true);
}

CodeReuseDemo run_jop_demo(const crypto::KeySet& keys) {
  return run_demo(kJopVictim, keys, /*aim_block_base=*/false);
}

}  // namespace sofia::security
