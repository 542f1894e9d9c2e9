#include "xform/normalize.hpp"

#include "cfg/cfg.hpp"
#include "isa/isa.hpp"
#include "support/error.hpp"

namespace sofia::xform {

using assembler::Program;
using assembler::RelocKind;
using assembler::SourceInst;
using isa::Instruction;
using isa::Opcode;

namespace {

SourceInst synth(Instruction inst, int line) {
  SourceInst si;
  si.inst = inst;
  si.line = line;
  return si;
}

SourceInst synth_la_hi(unsigned rd, const std::string& label, int line) {
  SourceInst si;
  si.inst.op = Opcode::kLui;
  si.inst.rd = static_cast<std::uint8_t>(rd);
  si.reloc = RelocKind::kHi18;
  si.target = label;
  si.line = line;
  return si;
}

SourceInst synth_la_lo(unsigned rd, const std::string& label, int line) {
  SourceInst si;
  si.inst.op = Opcode::kOri;
  si.inst.rd = static_cast<std::uint8_t>(rd);
  si.inst.ra = static_cast<std::uint8_t>(rd);
  si.reloc = RelocKind::kLo14;
  si.target = label;
  si.line = line;
  return si;
}

SourceInst synth_branch(Opcode op, unsigned ra, unsigned rb,
                        const std::string& label, int line) {
  SourceInst si;
  si.inst.op = op;
  si.inst.ra = static_cast<std::uint8_t>(ra);
  si.inst.rb = static_cast<std::uint8_t>(rb);
  si.reloc = RelocKind::kBranch;
  si.target = label;
  si.line = line;
  return si;
}

SourceInst synth_jal(unsigned rd, const std::string& label, int line) {
  SourceInst si;
  si.inst.op = Opcode::kJal;
  si.inst.rd = static_cast<std::uint8_t>(rd);
  si.reloc = RelocKind::kCall;
  si.target = label;
  si.line = line;
  return si;
}

}  // namespace

Program devirtualize(const Program& prog, bool keep_jump_form) {
  Program out;
  out.data = prog.data;
  out.data_labels = prog.data_labels;
  out.data_relocs = prog.data_relocs;
  out.entry = prog.entry;

  std::vector<std::uint32_t> new_index(prog.text.size() + 1, 0);
  int dispatch_count = 0;

  for (std::uint32_t i = 0; i < prog.text.size(); ++i) {
    new_index[i] = static_cast<std::uint32_t>(out.text.size());
    const SourceInst& si = prog.text[i];
    const bool indirect = si.inst.op == Opcode::kJalr && !isa::is_ret(si.inst);
    if (!indirect) {
      out.text.push_back(si);
      continue;
    }
    if (si.indirect_targets.empty())
      throw TransformError("devirtualize: line " + std::to_string(si.line) +
                           ": indirect jump without .targets annotation");
    if (si.inst.ra == isa::kRegScratch)
      throw TransformError("devirtualize: line " + std::to_string(si.line) +
                           ": indirect jump through reserved register r13");
    if (si.inst.imm != 0)
      throw TransformError("devirtualize: line " + std::to_string(si.line) +
                           ": indirect jump with non-zero offset unsupported");

    const bool is_call = si.inst.rd != isa::kRegZero;
    if (keep_jump_form && !is_call) {
      // Gating scheme: the jump survives; the layout/scheme pair seals its
      // declared target set and the machine enforces it at runtime.
      out.text.push_back(si);
      continue;
    }

    const std::string id = "__devirt" + std::to_string(dispatch_count++);
    // Compare chain.
    for (std::size_t t = 0; t < si.indirect_targets.size(); ++t) {
      const std::string& target = si.indirect_targets[t];
      const std::string case_label = id + "_case" + std::to_string(t);
      out.text.push_back(synth_la_hi(isa::kRegScratch, target, si.line));
      out.text.push_back(synth_la_lo(isa::kRegScratch, target, si.line));
      out.text.push_back(
          synth_branch(Opcode::kBeq, si.inst.ra, isa::kRegScratch, case_label, si.line));
    }
    // CFG-violation trap: the pointer matched no static target.
    out.text.push_back(synth(Instruction{Opcode::kHalt, 0, 0, 0, 0}, si.line));
    // Cases.
    const std::string done_label = id + "_done";
    for (std::size_t t = 0; t < si.indirect_targets.size(); ++t) {
      const std::string& target = si.indirect_targets[t];
      out.text_labels[id + "_case" + std::to_string(t)] =
          static_cast<std::uint32_t>(out.text.size());
      if (is_call) {
        out.text.push_back(synth_jal(si.inst.rd, target, si.line));
        out.text.push_back(synth_jal(isa::kRegZero, done_label, si.line));
      } else {
        out.text.push_back(synth_jal(isa::kRegZero, target, si.line));
      }
    }
    if (is_call)
      out.text_labels[done_label] = static_cast<std::uint32_t>(out.text.size());
  }
  new_index[prog.text.size()] = static_cast<std::uint32_t>(out.text.size());

  for (const auto& [name, idx] : prog.text_labels)
    out.text_labels[name] = new_index[idx];
  return out;
}

Program merge_returns(const Program& prog) {
  const cfg::Cfg cfg = cfg::Cfg::build(prog);
  Program out = prog;
  int epilogue_count = 0;
  for (const auto& fn : cfg.functions()) {
    if (fn.rets.size() < 2) continue;
    const std::uint32_t keep = fn.rets.front();
    const std::string label = "__epilogue" + std::to_string(epilogue_count++);
    out.text_labels[label] = keep;
    for (std::size_t r = 1; r < fn.rets.size(); ++r) {
      SourceInst& si = out.text[fn.rets[r]];
      si = synth_jal(isa::kRegZero, label, si.line);
    }
  }
  return out;
}

}  // namespace sofia::xform
