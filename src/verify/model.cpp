// Builds the linter's trusted reference (ProgramModel) from a completed
// transform: block geometry and declared predecessor words straight from
// the layout, return targets from the normalized program's CFG (the link
// register of every call site), declared indirect target sets from the
// `.targets` annotations, and the initial data section from the image so
// the dataflow engine (verify/dataflow.hpp) can resolve loads from
// provably-clean data.
#include <algorithm>
#include <optional>
#include <utility>

#include "cfg/cfg.hpp"
#include "support/error.hpp"
#include "verify/verify.hpp"

namespace sofia::verify {

ProgramModel model_of(const xform::TransformResult& t) {
  const xform::BlockLayout& layout = t.layout;
  const std::uint32_t b = layout.policy().words_per_block;

  ProgramModel m;
  m.policy = layout.policy();
  m.text_base = layout.text_base_word() * 4;
  m.entry = layout.entry_target_addr(layout.reset_entry());
  m.entry_prev_word = assembler::kResetPrevWord;
  m.data_base = t.image.data_base;
  m.stack_top = t.image.stack_top;
  m.data = t.image.data;

  m.blocks.reserve(layout.blocks().size());
  for (const xform::Block& blk : layout.blocks()) {
    ModelBlock mb;
    mb.is_mux = blk.kind == xform::BlockKind::kMux;
    mb.base_word = blk.base_word;
    mb.pred1_word = blk.pred1_word;
    mb.pred2_word = blk.pred2_word;
    mb.synthesized = blk.synthesized;
    mb.entry1_label = blk.entry1_label;
    mb.entry2_label = blk.entry2_label;
    mb.exit_label = blk.exit_label;
    mb.inst_words.reserve(blk.insts.size());
    for (const xform::PlacedInst& pi : blk.insts)
      mb.inst_words.push_back(isa::encode(pi.inst));
    m.blocks.push_back(std::move(mb));
  }

  // The rest needs the same CFG the packer consumed. With unreachable code
  // elided, some source instructions have no placement — their lookups
  // throw, which simply excludes them from the model.
  const cfg::Cfg g = cfg::Cfg::build(t.normalized);

  const auto block_of = [&](std::uint32_t src) -> std::optional<std::uint32_t> {
    try {
      const std::uint32_t word = layout.block_base_addr(src) / 4;
      return (word - layout.text_base_word()) / b;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  };

  // Return targets: a ret transfers to lr, and every call site linked
  // lr = its own placed address + 4 (word 0 of the block after the call).
  for (const cfg::FunctionInfo& fn : g.functions()) {
    std::vector<std::uint32_t> targets;
    for (const std::uint32_t call : fn.call_sites) {
      try {
        targets.push_back(layout.placed_addr(call) + 4);
      } catch (const std::exception&) {
        // call site inside elided code
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    if (targets.empty()) continue;
    for (const std::uint32_t r : fn.rets)
      if (const auto blk = block_of(r)) m.blocks[*blk].ret_targets = targets;
  }

  // Gated indirect jumps: each surviving jump-form jalr's declared target
  // set, resolved to the targets' canonical indirect entries (the only
  // addresses the sealed labels authorize).
  for (std::uint32_t i = 0; i < t.normalized.text.size(); ++i) {
    const assembler::SourceInst& si = t.normalized.text[i];
    if (si.inst.op != isa::Opcode::kJalr || isa::is_ret(si.inst)) continue;
    const auto blk = block_of(i);
    if (!blk) continue;  // elided
    std::vector<std::uint32_t> targets;
    for (const std::string& name : si.indirect_targets)
      targets.push_back(
          layout.indirect_entry_addr(t.normalized.text_labels.at(name)));
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    m.blocks[*blk].jalr_targets = std::move(targets);
  }

  return m;
}

}  // namespace sofia::verify
