#include "xform/layout.hpp"

#include <algorithm>

#include "assembler/image.hpp"
#include "scheme/label.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"

namespace sofia::xform {

using isa::Instruction;
using isa::Opcode;

namespace {

/// Synthetic `from` value identifying the architectural reset edge.
constexpr std::uint32_t kResetFrom = 0xFFFFFFFEu;

/// Synthetic `from` value identifying a leader's canonical indirect entry
/// (all gated jump-form jalr share it; the entry seals against
/// assembler::kIndirectPrevWord instead of a real predecessor).
constexpr std::uint32_t kIndirectFrom = 0xFFFFFFFDu;

Instruction make_nop() { return Instruction{}; }

Instruction make_jump() {
  Instruction j;
  j.op = Opcode::kJal;
  j.rd = isa::kRegZero;
  return j;
}

/// One deduplicated predecessor of a leader (edges grouped by `from`).
struct Group {
  std::uint32_t from = kResetFrom;  ///< transferring instruction, or reset
  bool is_reset = false;
  bool has_return = false;    ///< contains a kReturn edge
  bool is_indirect = false;   ///< the canonical indirect entry
};

/// Where a group was rerouted to (thunk / landing / synthesized jump).
struct Reroute {
  std::uint32_t block_id = 0;
  bool via_new_jump = false;  ///< entry key flips to (block_id, forward)
};

}  // namespace

// ---------------------------------------------------------------------------
// Packer
// ---------------------------------------------------------------------------

namespace {

class Packer {
 public:
  Packer(const assembler::Program& prog, const cfg::Cfg& cfg,
         const BlockPolicy& policy, const assembler::MemoryLayout& mem,
         bool elide_unreachable, BlockLayout& out, LayoutStats& stats,
         std::vector<Block>& blocks,
         std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>& placement,
         std::map<EdgeKey, EntryRef>& entries,
         std::map<std::uint32_t, EntryRef>& indirect_entries,
         EntryRef& reset_entry)
      : prog_(prog),
        cfg_(cfg),
        policy_(policy),
        mem_(mem),
        elide_unreachable_(elide_unreachable),
        out_(out),
        stats_(stats),
        blocks_(blocks),
        placement_(placement),
        entries_(entries),
        indirect_entries_(indirect_entries),
        reset_entry_(reset_entry) {}

  void run() {
    collect_groups();
    pack_runs();
    assign_entries_and_trees();
    collect_indirect_entries();
    assign_addresses();
    resolve_preds();
    fix_immediates();
    assign_labels();
    verify();
  }

 private:
  // ---- predecessor groups -------------------------------------------------

  void collect_groups() {
    for (const std::uint32_t leader : cfg_.leaders()) {
      std::vector<Group>& groups = groups_[leader];
      bool indirect_target = false;
      for (const cfg::Edge& e : cfg_.preds(leader)) {
        if (e.kind == cfg::EdgeKind::kIndirect) {
          // Every indirect source shares one canonical entry; the dynamic
          // predecessor never appears in the counter.
          indirect_target = true;
          continue;
        }
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const Group& g) { return g.from == e.from; });
        if (it == groups.end()) {
          groups.push_back({e.from, false, e.kind == cfg::EdgeKind::kReturn});
        } else if (e.kind == cfg::EdgeKind::kReturn) {
          it->has_return = true;
        }
      }
      std::sort(groups.begin(), groups.end(),
                [](const Group& a, const Group& b) { return a.from < b.from; });
      if (leader == cfg_.entry())
        groups.insert(groups.begin(), Group{kResetFrom, true, false});
      if (indirect_target)
        groups.push_back(Group{kIndirectFrom, false, false, true});
      if (groups.empty())  // unreachable code: give it a reset pred
        groups.push_back(Group{kResetFrom, true, false});
    }
  }

  bool needs_mux(std::uint32_t leader) const {
    return groups_.at(leader).size() >= 2;
  }

  // ---- phase A: pack runs -------------------------------------------------

  bool elided(std::uint32_t leader) const {
    return elide_unreachable_ && !cfg_.reachable(leader);
  }

  void pack_runs() {
    const auto& leaders = cfg_.leaders();
    for (std::size_t pos = 0; pos < leaders.size(); ++pos) {
      const std::uint32_t leader = leaders[pos];
      const std::uint32_t end = cfg_.run_end(leader);
      if (elided(leader)) {
        stats_.elided_insts += end - leader;
        continue;
      }
      open_leader_block(leader);
      for (std::uint32_t i = leader; i < end; ++i) place_source(i);
      finish_run(leader, end);
    }
  }

  void open_leader_block(std::uint32_t leader) {
    const BlockKind kind = needs_mux(leader) ? BlockKind::kMux : BlockKind::kExec;
    open_block(kind, /*synth=*/false);
    leader_first_block_[leader] = cur_id_;
  }

  void open_block(BlockKind kind, bool synth) {
    Block b;
    b.kind = kind;
    b.id = static_cast<std::uint32_t>(blocks_.size());
    b.synthesized = synth;
    blocks_.push_back(std::move(b));
    cur_id_ = blocks_.back().id;
    cur_open_ = true;
    if (kind == BlockKind::kExec)
      ++stats_.exec_blocks;
    else
      ++stats_.mux_blocks;
  }

  Block& cur() { return blocks_[cur_id_]; }

  std::uint32_t capacity() const {
    return blocks_[cur_id_].kind == BlockKind::kExec ? policy_.exec_insts()
                                                     : policy_.mux_insts();
  }

  std::uint32_t mac_words(const Block& b) const {
    return b.kind == BlockKind::kExec ? policy_.words_per_block - policy_.exec_insts()
                                      : policy_.words_per_block - policy_.mux_insts();
  }

  /// Block word index the next instruction slot will occupy.
  std::uint32_t next_word_index() {
    return mac_words(cur()) + static_cast<std::uint32_t>(cur().insts.size());
  }

  void push_inst(PlacedInst pi) {
    if (!cur_open_) continuation_block();
    if (cur().insts.size() == capacity()) continuation_block();
    if (pi.src != kSynthesized)
      placement_[pi.src] = {cur_id_, static_cast<std::uint32_t>(cur().insts.size())};
    cur().insts.push_back(std::move(pi));
  }

  void push_nop() {
    PlacedInst pi;
    pi.inst = make_nop();
    ++stats_.pad_nops;
    push_inst(std::move(pi));
  }

  /// Ensure the next push lands on the final instruction slot of a block.
  void pad_to_exit_slot() {
    if (!cur_open_) continuation_block();
    if (cur().insts.size() == capacity()) continuation_block();
    while (cur().insts.size() + 1 < capacity()) push_nop();
  }

  /// Open a continuation execution block (single fall-through pred).
  void continuation_block() {
    // Pad the (full-by-construction) current block; remember it as pred.
    const std::uint32_t prev = cur_id_;
    if (cur_open_ && cur().insts.size() != capacity())
      throw TransformError("layout: continuation from non-full block");
    open_block(BlockKind::kExec, /*synth=*/false);
    cur().pred1 = {PredRef::Kind::kBlockExit, prev};
  }

  void close_block_padded() {
    if (!cur_open_) return;
    while (cur().insts.size() < capacity()) push_nop();
    cur_open_ = false;
  }

  void place_source(std::uint32_t i) {
    const assembler::SourceInst& si = prog_.text[i];
    PlacedInst pi;
    pi.inst = si.inst;
    pi.src = i;
    pi.reloc = si.reloc;
    pi.reloc_label = si.target;
    if (si.reloc == assembler::RelocKind::kBranch ||
        si.reloc == assembler::RelocKind::kCall) {
      pi.target_leader = prog_.text_labels.at(si.target);
      pi.edge_from = i;
    } else if (isa::is_cond_branch(si.inst.op) || si.inst.op == Opcode::kJal) {
      throw TransformError("layout: instruction " + std::to_string(i) + " (line " +
                           std::to_string(si.line) +
                           "): numeric branch targets are not supported by the "
                           "SOFIA transform; use labels");
    }
    if (isa::is_control(si.inst.op)) {
      // Exit-class: pad to the last slot of the current block.
      pad_to_exit_slot();
      push_inst(std::move(pi));
      cur_open_ = false;
      return;
    }
    if (isa::is_store(si.inst.op)) {
      // Pad until the store lands on an allowed block word index.
      if (!cur_open_) continuation_block();
      for (;;) {
        if (cur().insts.size() == capacity()) {
          continuation_block();
          continue;
        }
        if (next_word_index() >= policy_.store_min_word) break;
        push_nop();
      }
    }
    push_inst(std::move(pi));
    if (cur().insts.size() == capacity()) cur_open_ = false;
  }

  /// Handle the run's outgoing fall-through/return continuation.
  void finish_run(std::uint32_t /*leader*/, std::uint32_t end) {
    const std::uint32_t last = end - 1;
    const Opcode op = prog_.text[last].inst.op;
    if (isa::is_cond_branch(op)) {
      // Not-taken side falls into the next leader `end`.
      if (needs_mux(end)) emit_thunk(last, end);
      return;
    }
    if (op == Opcode::kJal && prog_.text[last].inst.rd != isa::kRegZero) {
      // Call: the return lands at lr = call+4, i.e. word 0 of the next
      // block. If the return site is a join, interpose a landing block
      // owned by the callee's ret.
      handle_return_site(last, end);
      return;
    }
    if (isa::is_control(op)) return;  // j / ret / halt: no fall-through
    // Plain fall-through into `end`.
    if (needs_mux(end)) {
      // Synthesize an explicit jump in this run's final block.
      PlacedInst j;
      j.inst = make_jump();
      j.target_leader = end;
      j.edge_from = last;
      ++stats_.synth_jumps;
      pad_to_exit_slot();
      const std::uint32_t jblock = cur_id_;
      push_inst(std::move(j));
      cur_open_ = false;
      reroutes_[{last, end}] = Reroute{jblock, false};
    } else {
      close_block_padded();
    }
  }

  /// Thunk for a conditional branch whose not-taken side enters a join:
  /// an execution block [nop..., j join] placed right after the branch
  /// block; the taken side is redirected at the thunk too, so both sides
  /// present the same prevPC.
  void emit_thunk(std::uint32_t branch_index, std::uint32_t join) {
    const std::uint32_t branch_block = placement_.at(branch_index).first;
    open_block(BlockKind::kExec, /*synth=*/true);
    --stats_.exec_blocks;
    ++stats_.thunk_blocks;
    cur().pred1 = {PredRef::Kind::kBlockExit, branch_block};
    const std::uint32_t thunk = cur_id_;
    while (cur().insts.size() + 1 < capacity()) push_nop();
    PlacedInst j;
    j.inst = make_jump();
    j.target_leader = join;
    j.edge_from = thunk;
    j.edge_forward = true;
    ++stats_.synth_jumps;
    push_inst(std::move(j));
    cur_open_ = false;
    reroutes_[{branch_index, join}] = Reroute{thunk, true};
    // The taken side of the branch must target the thunk's exec entry when
    // the taken target is the same join.
    entry_alias_[{branch_index, join, false}] = EntryRef{thunk, 0};
  }

  void handle_return_site(std::uint32_t call_index, std::uint32_t site) {
    const auto& groups = groups_.at(site);
    const auto ret_it = std::find_if(groups.begin(), groups.end(),
                                     [](const Group& g) { return g.has_return; });
    if (ret_it == groups.end()) return;  // callee never returns
    if (groups.size() == 1) return;      // site is a plain exec block: natural
    // Landing block: exec, pred = the callee's ret, jumps into the join.
    open_block(BlockKind::kExec, /*synth=*/true);
    --stats_.exec_blocks;
    ++stats_.thunk_blocks;
    cur().pred1 = {PredRef::Kind::kInstBlock, ret_it->from};
    const std::uint32_t landing = cur_id_;
    while (cur().insts.size() + 1 < capacity()) push_nop();
    PlacedInst j;
    j.inst = make_jump();
    j.target_leader = site;
    j.edge_from = landing;
    j.edge_forward = true;
    ++stats_.synth_jumps;
    push_inst(std::move(j));
    cur_open_ = false;
    reroutes_[{ret_it->from, site}] = Reroute{landing, true};
    (void)call_index;
  }

  // ---- phase B: entry assignment & multiplexor trees -----------------------

  struct Input {
    EdgeKey key;
    PredRef pred;
  };

  Input input_for(std::uint32_t leader, const Group& g) {
    if (g.is_reset)
      return {{kResetFrom, leader, false}, {PredRef::Kind::kReset, 0}};
    if (g.is_indirect)
      return {{kIndirectFrom, leader, false}, {PredRef::Kind::kIndirect, 0}};
    if (auto it = reroutes_.find({g.from, leader}); it != reroutes_.end()) {
      const Reroute& r = it->second;
      if (r.via_new_jump)
        return {{r.block_id, leader, true},
                {PredRef::Kind::kBlockExit, r.block_id}};
      return {{g.from, leader, false}, {PredRef::Kind::kBlockExit, r.block_id}};
    }
    return {{g.from, leader, false}, {PredRef::Kind::kInstBlock, g.from}};
  }

  void assign_entries_and_trees() {
    for (const std::uint32_t leader : cfg_.leaders()) {
      if (elided(leader)) continue;
      const std::uint32_t first = leader_first_block_.at(leader);
      std::vector<Input> inputs;
      for (const Group& g : groups_.at(leader)) inputs.push_back(input_for(leader, g));
      if (inputs.size() == 1) {
        entries_[inputs[0].key] = EntryRef{first, 0};
        blocks_[first].pred1 = inputs[0].pred;
        continue;
      }
      // Reduce to two inputs with forwarding blocks (Fig. 9).
      while (inputs.size() > 2) {
        std::vector<Input> next;
        for (std::size_t i = 0; i + 1 < inputs.size(); i += 2)
          next.push_back(make_forward_block(leader, inputs[i], inputs[i + 1]));
        if (inputs.size() % 2 != 0) next.push_back(inputs.back());
        inputs = std::move(next);
      }
      entries_[inputs[0].key] = EntryRef{first, 1};
      entries_[inputs[1].key] = EntryRef{first, 2};
      blocks_[first].pred1 = inputs[0].pred;
      blocks_[first].pred2 = inputs[1].pred;
    }
  }

  Input make_forward_block(std::uint32_t leader, const Input& a, const Input& b) {
    open_block(BlockKind::kMux, /*synth=*/true);
    --stats_.mux_blocks;
    ++stats_.forward_blocks;
    const std::uint32_t id = cur_id_;
    while (cur().insts.size() + 1 < capacity()) push_nop();
    PlacedInst j;
    j.inst = make_jump();
    j.target_leader = leader;
    j.edge_from = id;
    j.edge_forward = true;
    ++stats_.synth_jumps;
    push_inst(std::move(j));
    cur_open_ = false;
    entries_[a.key] = EntryRef{id, 1};
    entries_[b.key] = EntryRef{id, 2};
    blocks_[id].pred1 = a.pred;
    blocks_[id].pred2 = b.pred;
    return {{id, leader, true}, {PredRef::Kind::kBlockExit, id}};
  }

  /// Record each declared indirect target's assigned entry (possibly a
  /// forwarding-tree entry when the leader has many predecessors).
  void collect_indirect_entries() {
    for (const auto& [leader, groups] : groups_) {
      if (elided(leader)) continue;
      for (const Group& g : groups)
        if (g.is_indirect)
          indirect_entries_[leader] = entries_.at({kIndirectFrom, leader, false});
    }
  }

  // ---- phase C: addresses & predecessor words ------------------------------

  void assign_addresses() {
    const std::uint32_t base = mem_.text_base / 4;
    if (mem_.text_base % 4 != 0)
      throw TransformError("layout: text base must be word aligned");
    for (std::size_t k = 0; k < blocks_.size(); ++k)
      blocks_[k].base_word =
          base + static_cast<std::uint32_t>(k) * policy_.words_per_block;
  }

  std::uint32_t pred_word(const PredRef& p) const {
    switch (p.kind) {
      case PredRef::Kind::kReset:
        return assembler::kResetPrevWord;
      case PredRef::Kind::kIndirect:
        return assembler::kIndirectPrevWord;
      case PredRef::Kind::kBlockExit:
        return blocks_[p.value].base_word + policy_.words_per_block - 1;
      case PredRef::Kind::kInstBlock: {
        const auto it = placement_.find(p.value);
        if (it == placement_.end())
          throw TransformError("layout: unplaced predecessor instruction");
        return blocks_[it->second.first].base_word + policy_.words_per_block - 1;
      }
    }
    throw TransformError("layout: bad PredRef");
  }

  void resolve_preds() {
    for (Block& b : blocks_) {
      b.pred1_word = pred_word(b.pred1);
      if (b.kind == BlockKind::kMux) b.pred2_word = pred_word(b.pred2);
    }
  }

  // ---- phase D: immediate fixups -------------------------------------------

  std::uint32_t label_addr(const std::string& label) const {
    if (auto it = prog_.text_labels.find(label); it != prog_.text_labels.end()) {
      // The address of an indirect target IS its canonical indirect entry:
      // any materialized pointer to it must be usable by a gated jump.
      if (auto ind = indirect_entries_.find(it->second);
          ind != indirect_entries_.end())
        return out_.entry_target_addr(ind->second);
      return out_.placed_addr(it->second);
    }
    if (auto it = prog_.data_labels.find(label); it != prog_.data_labels.end())
      return mem_.data_base + it->second;
    throw TransformError("layout: unknown label '" + label + "'");
  }

  void fix_immediates() {
    for (Block& b : blocks_) {
      const std::uint32_t macs = mac_words(b);
      for (std::size_t s = 0; s < b.insts.size(); ++s) {
        PlacedInst& pi = b.insts[s];
        const std::uint32_t word =
            b.base_word + macs + static_cast<std::uint32_t>(s);
        if (pi.target_leader != kSynthesized) {
          const EntryRef entry = lookup_entry(pi);
          const std::uint32_t target_word =
              blocks_[entry.block_id].base_word + entry.entry_offset;
          const auto off = static_cast<std::int64_t>(target_word) -
                           static_cast<std::int64_t>(word);
          const unsigned width = (pi.inst.op == Opcode::kJal) ? 22u : 14u;
          if (!fits_signed(off, width))
            throw TransformError(
                "layout: branch offset out of range after blocking (" +
                std::to_string(off) + " words)");
          pi.inst.imm = static_cast<std::int32_t>(off);
        } else if (pi.reloc == assembler::RelocKind::kHi18) {
          pi.inst.imm = static_cast<std::int32_t>(label_addr(pi.reloc_label) >> 14);
        } else if (pi.reloc == assembler::RelocKind::kLo14) {
          pi.inst.imm =
              static_cast<std::int32_t>(label_addr(pi.reloc_label) & 0x3FFFu);
        }
      }
    }
    // Program entry.
    const EdgeKey reset_key{kResetFrom, cfg_.entry(), false};
    reset_entry_ = entries_.at(reset_key);
  }

  // ---- phase E: forward-edge labels ----------------------------------------

  /// Collapse the declared target sets of every placed jump-form jalr into
  /// label classes and stamp them onto the affected blocks (the sealer
  /// reads them via BlockInfo; non-gating programs have no sites and every
  /// label stays zero).
  void assign_labels() {
    std::vector<scheme::IndirectSite> sites;
    for (std::uint32_t i = 0; i < prog_.text.size(); ++i) {
      const assembler::SourceInst& si = prog_.text[i];
      if (si.inst.op != Opcode::kJalr || isa::is_ret(si.inst)) continue;
      if (placement_.find(i) == placement_.end()) continue;  // elided
      scheme::IndirectSite site;
      site.exit_word = out_.placed_addr(i) / 4;
      for (const std::string& t : si.indirect_targets) {
        const EntryRef ref = indirect_entries_.at(prog_.text_labels.at(t));
        site.target_entry_words.push_back(out_.entry_target_addr(ref) / 4);
      }
      sites.push_back(std::move(site));
    }
    if (sites.empty()) return;
    const scheme::LabelPlan plan = scheme::assign_labels(sites);
    const std::uint32_t base = mem_.text_base / 4;
    for (const auto& [word, label] : plan.entry_label) {
      const std::uint32_t rel = word - base;
      Block& b = blocks_[rel / policy_.words_per_block];
      if (rel % policy_.words_per_block == 2)
        b.entry2_label = label;
      else
        b.entry1_label = label;
    }
    for (const auto& [word, label] : plan.exit_label) {
      const std::uint32_t rel = word - base;
      blocks_[rel / policy_.words_per_block].exit_label = label;
    }
  }

  EntryRef lookup_entry(const PlacedInst& pi) const {
    const EdgeKey key{pi.edge_from, pi.target_leader, pi.edge_forward};
    if (auto it = entry_alias_.find(key); it != entry_alias_.end())
      return it->second;
    if (auto it = entries_.find(key); it != entries_.end()) return it->second;
    throw TransformError("layout: no entry assigned for edge to leader " +
                         std::to_string(pi.target_leader));
  }

  // ---- invariants -----------------------------------------------------------

  void verify() const {
    for (const Block& b : blocks_) {
      const std::uint32_t cap = b.kind == BlockKind::kExec ? policy_.exec_insts()
                                                           : policy_.mux_insts();
      if (b.insts.size() != cap)
        throw TransformError("layout: block " + std::to_string(b.id) +
                             " not full");
      const std::uint32_t macs =
          policy_.words_per_block - static_cast<std::uint32_t>(b.insts.size());
      for (std::size_t s = 0; s < b.insts.size(); ++s) {
        const Opcode op = b.insts[s].inst.op;
        if (isa::is_control(op) && s + 1 != b.insts.size())
          throw TransformError("layout: control instruction not at exit slot");
        if (isa::is_store(op) &&
            macs + s < policy_.store_min_word)
          throw TransformError("layout: store in restricted slot");
      }
    }
  }

  const assembler::Program& prog_;
  const cfg::Cfg& cfg_;
  const BlockPolicy& policy_;
  const assembler::MemoryLayout& mem_;
  bool elide_unreachable_;
  BlockLayout& out_;
  LayoutStats& stats_;
  std::vector<Block>& blocks_;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>& placement_;
  std::map<EdgeKey, EntryRef>& entries_;
  std::map<std::uint32_t, EntryRef>& indirect_entries_;
  EntryRef& reset_entry_;

  std::map<std::uint32_t, std::vector<Group>> groups_;
  std::map<std::uint32_t, std::uint32_t> leader_first_block_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Reroute> reroutes_;
  std::map<EdgeKey, EntryRef> entry_alias_;
  std::uint32_t cur_id_ = 0;
  bool cur_open_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// BlockLayout
// ---------------------------------------------------------------------------

BlockLayout BlockLayout::pack(const assembler::Program& prog, const cfg::Cfg& cfg,
                              const BlockPolicy& policy,
                              const assembler::MemoryLayout& mem,
                              bool elide_unreachable) {
  policy.validate();
  BlockLayout layout;
  layout.policy_ = policy;
  layout.text_base_word_ = mem.text_base / 4;
  layout.stats_.source_insts = static_cast<std::uint32_t>(prog.text.size());
  Packer packer(prog, cfg, policy, mem, elide_unreachable, layout,
                layout.stats_, layout.blocks_, layout.placement_,
                layout.entries_, layout.indirect_entries_,
                layout.reset_entry_);
  packer.run();
  return layout;
}

std::uint32_t BlockLayout::placed_addr(std::uint32_t src_index) const {
  const auto it = placement_.find(src_index);
  if (it == placement_.end())
    throw TransformError("layout: instruction " + std::to_string(src_index) +
                         " was not placed");
  const Block& b = blocks_[it->second.first];
  const std::uint32_t macs =
      policy_.words_per_block - static_cast<std::uint32_t>(b.insts.size());
  return (b.base_word + macs + it->second.second) * 4;
}

std::uint32_t BlockLayout::block_base_addr(std::uint32_t src_index) const {
  const auto it = placement_.find(src_index);
  if (it == placement_.end())
    throw TransformError("layout: instruction " + std::to_string(src_index) +
                         " was not placed");
  return blocks_[it->second.first].base_word * 4;
}

EntryRef BlockLayout::entry_for(const EdgeKey& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end())
    throw TransformError("layout: no entry for edge");
  return it->second;
}

std::uint32_t BlockLayout::entry_target_addr(const EntryRef& ref) const {
  return (blocks_[ref.block_id].base_word + ref.entry_offset) * 4;
}

std::uint32_t BlockLayout::exit_word(std::uint32_t block_id) const {
  return blocks_[block_id].base_word + policy_.words_per_block - 1;
}

std::uint32_t BlockLayout::indirect_entry_addr(std::uint32_t text_index) const {
  const auto it = indirect_entries_.find(text_index);
  if (it == indirect_entries_.end())
    throw TransformError("layout: text index " + std::to_string(text_index) +
                         " is not a declared indirect target");
  return entry_target_addr(it->second);
}

}  // namespace sofia::xform
