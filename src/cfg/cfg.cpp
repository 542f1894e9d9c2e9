#include "cfg/cfg.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "support/error.hpp"

namespace sofia::cfg {

using isa::Opcode;

std::string_view to_string(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kFallThrough: return "fall";
    case EdgeKind::kBranchFall: return "branch-fall";
    case EdgeKind::kBranchTaken: return "branch-taken";
    case EdgeKind::kJump: return "jump";
    case EdgeKind::kCall: return "call";
    case EdgeKind::kReturn: return "return";
    case EdgeKind::kIndirect: return "indirect";
  }
  return "?";
}

namespace {

std::uint32_t branch_target(const assembler::Program& prog, std::uint32_t index) {
  const auto& si = prog.text[index];
  if (si.reloc == assembler::RelocKind::kBranch ||
      si.reloc == assembler::RelocKind::kCall)
    return prog.text_labels.at(si.target);
  // Numeric (relative word) offset.
  return index + static_cast<std::uint32_t>(si.inst.imm);
}

[[noreturn]] void fail(const assembler::Program& prog, std::uint32_t index,
                       const std::string& what) {
  throw TransformError("cfg: instruction " + std::to_string(index) + " (line " +
                       std::to_string(prog.text[index].line) + "): " + what);
}

}  // namespace

Cfg Cfg::build(const assembler::Program& prog) {
  Cfg cfg;
  const auto n = static_cast<std::uint32_t>(prog.text.size());
  cfg.text_size_ = n;
  if (n == 0) throw TransformError("cfg: empty program");
  cfg.entry_ = prog.text_labels.at(prog.entry);

  // ---- validate instruction stream & collect leaders ----------------------
  std::set<std::uint32_t> leader_set;
  leader_set.insert(cfg.entry_);
  leader_set.insert(0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& si = prog.text[i];
    const Opcode op = si.inst.op;
    if (op == Opcode::kJalr && !isa::is_ret(si.inst)) {
      // A surviving indirect jump is analyzable iff its target set was
      // declared (a forward-edge gating scheme keeps annotated jump-form
      // jalr; everything else devirtualizes them before this point).
      if (si.indirect_targets.empty())
        fail(prog, i,
             "indirect jump survived normalization (missing .targets "
             "annotation?)");
      for (const std::string& t : si.indirect_targets) {
        const auto it = prog.text_labels.find(t);
        if (it == prog.text_labels.end() || it->second >= n)
          fail(prog, i, "indirect target '" + t + "' is not a text label");
        leader_set.insert(it->second);
      }
    }
    if (isa::is_cond_branch(op) || op == Opcode::kJal) {
      const std::uint32_t t = branch_target(prog, i);
      if (t >= n) fail(prog, i, "branch target out of range");
      leader_set.insert(t);
    }
    if (isa::is_control(op)) {
      if (i + 1 < n) leader_set.insert(i + 1);
      // A conditional branch or call as the very last instruction would fall
      // off the end / have no return point.
      if (i + 1 == n && (isa::is_cond_branch(op) ||
                         (op == Opcode::kJal && si.inst.rd != isa::kRegZero)))
        fail(prog, i, "control falls off the end of text");
    } else if (i + 1 == n) {
      fail(prog, i, "execution can run off the end of text");
    }
  }
  cfg.leaders_.assign(leader_set.begin(), leader_set.end());
  for (std::size_t p = 0; p < cfg.leaders_.size(); ++p)
    cfg.leader_pos_[cfg.leaders_[p]] = p;

  // ---- intra-block edges (everything except returns) ----------------------
  auto add_edge = [&cfg](std::uint32_t from, std::uint32_t to, EdgeKind kind) {
    cfg.edges_.push_back({from, to, kind});
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& si = prog.text[i];
    const Opcode op = si.inst.op;
    if (isa::is_cond_branch(op)) {
      add_edge(i, branch_target(prog, i), EdgeKind::kBranchTaken);
      add_edge(i, i + 1, EdgeKind::kBranchFall);
    } else if (op == Opcode::kJal) {
      add_edge(i, branch_target(prog, i),
               si.inst.rd == isa::kRegZero ? EdgeKind::kJump : EdgeKind::kCall);
    } else if (op == Opcode::kJalr && !isa::is_ret(si.inst)) {
      // One indirect edge per declared target (deduplicated: a label may
      // appear twice in the annotation).
      std::set<std::uint32_t> targets;
      for (const std::string& t : si.indirect_targets)
        targets.insert(prog.text_labels.at(t));
      for (const std::uint32_t t : targets)
        add_edge(i, t, EdgeKind::kIndirect);
    } else if (op == Opcode::kJalr || op == Opcode::kHalt) {
      // ret edges added below; halt has no successors
    } else if (i + 1 < n && leader_set.count(i + 1) != 0) {
      add_edge(i, i + 1, EdgeKind::kFallThrough);
    }
  }

  // ---- function discovery --------------------------------------------------
  // Entries: program entry + every call target.
  std::set<std::uint32_t> entry_set{cfg.entry_};
  for (const auto& e : cfg.edges_)
    if (e.kind == EdgeKind::kCall) entry_set.insert(e.to);

  std::unordered_map<std::uint32_t, std::string> label_of_index;
  for (const auto& [name, idx] : prog.text_labels) {
    // Prefer the lexicographically first label for determinism.
    auto it = label_of_index.find(idx);
    if (it == label_of_index.end() || name < it->second) label_of_index[idx] = name;
  }

  std::unordered_map<std::uint32_t, std::uint32_t> ret_owner;  // ret -> entry
  for (const std::uint32_t entry : entry_set) {
    FunctionInfo fn;
    fn.entry = entry;
    if (auto it = label_of_index.find(entry); it != label_of_index.end())
      fn.name = it->second;
    else
      fn.name = "<entry>";
    // Intra-procedural BFS: calls continue at their return point, rets stop.
    std::deque<std::uint32_t> work{entry};
    std::set<std::uint32_t> seen{entry};
    while (!work.empty()) {
      const std::uint32_t i = work.front();
      work.pop_front();
      fn.body.push_back(i);
      const auto& inst = prog.text[i].inst;
      std::vector<std::uint32_t> succ;
      if (isa::is_cond_branch(inst.op)) {
        succ = {branch_target(prog, i), i + 1};
      } else if (inst.op == Opcode::kJal) {
        if (inst.rd == isa::kRegZero)
          succ = {branch_target(prog, i)};
        else
          succ = {i + 1};  // step over the call
      } else if (isa::is_ret(inst)) {
        fn.rets.push_back(i);
        auto [it, inserted] = ret_owner.emplace(i, entry);
        if (!inserted && it->second != entry)
          fail(prog, i, "ret is reachable from multiple function entries ('" +
                            fn.name + "' and another); split the shared epilogue");
      } else if (inst.op == Opcode::kJalr) {
        // Surviving jump-form jalr: flow continues at every declared
        // target, inside the same function (like a computed goto).
        for (const std::string& t : prog.text[i].indirect_targets)
          succ.push_back(prog.text_labels.at(t));
      } else if (inst.op != Opcode::kHalt) {
        succ = {i + 1};
      }
      for (const std::uint32_t s : succ) {
        if (s < n && seen.insert(s).second) work.push_back(s);
      }
    }
    std::sort(fn.body.begin(), fn.body.end());
    std::sort(fn.rets.begin(), fn.rets.end());
    cfg.functions_.push_back(std::move(fn));
  }
  std::sort(cfg.functions_.begin(), cfg.functions_.end(),
            [](const FunctionInfo& a, const FunctionInfo& b) { return a.entry < b.entry; });

  // ---- call sites and return edges ----------------------------------------
  for (const auto& e : cfg.edges_) {
    if (e.kind != EdgeKind::kCall) continue;
    auto* fn = const_cast<FunctionInfo*>(cfg.function_at(e.to));
    fn->call_sites.push_back(e.from);
  }
  std::vector<Edge> ret_edges;
  for (auto& fn : cfg.functions_) {
    std::sort(fn.call_sites.begin(), fn.call_sites.end());
    if (!fn.rets.empty() && fn.entry == cfg.entry_ && fn.call_sites.empty())
      fail(prog, fn.rets.front(), "ret in entry function with no callers");
    for (const std::uint32_t ret : fn.rets)
      for (const std::uint32_t site : fn.call_sites)
        ret_edges.push_back({ret, site + 1, EdgeKind::kReturn});
  }
  cfg.edges_.insert(cfg.edges_.end(), ret_edges.begin(), ret_edges.end());

  // ---- predecessor lists & reachability ------------------------------------
  for (const auto& e : cfg.edges_) {
    if (cfg.leader_pos_.count(e.to) == 0)
      throw TransformError("cfg: internal error: edge target is not a leader");
    cfg.preds_[e.to].push_back(e);
  }
  for (auto& [leader, edges] : cfg.preds_) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.from, a.kind) < std::tie(b.from, b.kind);
    });
  }

  cfg.reachable_.assign(n, false);
  {
    std::deque<std::uint32_t> work{cfg.entry_};
    cfg.reachable_[cfg.entry_] = true;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> succs;
    for (const auto& e : cfg.edges_) succs[e.from].push_back(e.to);
    while (!work.empty()) {
      std::uint32_t i = work.front();
      work.pop_front();
      // Walk the straight-line run, then follow edges from its terminator.
      const std::uint32_t end = cfg.run_end(i);
      for (std::uint32_t j = i; j < end; ++j) cfg.reachable_[j] = true;
      const std::uint32_t last = end - 1;
      // Successor leaders: any edge out of an instruction in [i, end).
      for (std::uint32_t j = i; j <= last; ++j) {
        auto it = succs.find(j);
        if (it == succs.end()) continue;
        for (const std::uint32_t t : it->second) {
          if (!cfg.reachable_[t]) {
            cfg.reachable_[t] = true;
            work.push_back(t);
          }
        }
      }
    }
  }
  return cfg;
}

std::uint32_t Cfg::run_end(std::uint32_t leader) const {
  const auto it = leader_pos_.find(leader);
  if (it == leader_pos_.end())
    throw TransformError("cfg: run_end on non-leader " + std::to_string(leader));
  const std::size_t pos = it->second;
  return (pos + 1 < leaders_.size()) ? leaders_[pos + 1] : text_size_;
}

const std::vector<Edge>& Cfg::preds(std::uint32_t leader) const {
  static const std::vector<Edge> kEmpty;
  const auto it = preds_.find(leader);
  return it == preds_.end() ? kEmpty : it->second;
}

bool Cfg::reachable(std::uint32_t leader) const {
  return leader < reachable_.size() && reachable_[leader];
}

const FunctionInfo* Cfg::function_at(std::uint32_t index) const {
  for (const auto& fn : functions_)
    if (fn.entry == index) return &fn;
  return nullptr;
}

}  // namespace sofia::cfg
