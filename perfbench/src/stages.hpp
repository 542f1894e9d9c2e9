// Helpers shared by the workloads that drive pipeline sessions by hand:
// a traced session opener (workload generation timed apart from the
// session), the CFG and verifier probe calls, and the exact counters summed
// over a pass.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "cfg/cfg.hpp"
#include "pipeline/pipeline.hpp"
#include "verify/dataflow.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace perfbench {

/// Pipeline::from_workload, split so the workload generator (source +
/// golden model) gets a span of its own. The session is identical.
inline sofia::pipeline::Pipeline traced_session(Tracer& tracer,
                                         const sofia::workloads::WorkloadSpec& wl,
                                         std::uint64_t seed, std::uint32_t size,
                                         const sofia::pipeline::DeviceProfile& profile) {
  std::string source;
  std::string golden;
  {
    auto span = tracer.span("workloads.gen");
    source = wl.source(seed, size);
    golden = wl.golden(seed, size);
  }
  auto p = sofia::pipeline::Pipeline::from_source(std::move(source), profile, wl.name);
  p.set_expected_output(std::move(golden));
  return p;
}

/// The CFG and verifier probe calls on one hardened image, each in a span:
/// a separate cfg::Cfg::build, then verify::model_of and
/// verify::dataflow::analyze. The model and dataflow times are taken off
/// `rules_ms`, so a caller that added the image's lint() time to it is left
/// with lint() minus its model and dataflow parts. Returns the dataflow
/// engine's transfer count.
inline std::uint64_t probe_verifier(Tracer& tracer, const sofia::xform::TransformResult& hard,
                                    double& rules_ms) {
  { auto s = tracer.span("cfg.build"); sofia::cfg::Cfg::build(hard.normalized); }
  sofia::verify::ProgramModel model;
  {
    auto s = tracer.span("verify.model");
    model = sofia::verify::model_of(hard);
    rules_ms -= s.elapsed_ms();
  }
  auto s = tracer.span("verify.dataflow");
  const std::uint64_t transfers = sofia::verify::dataflow::analyze(model).transfers;
  rules_ms -= s.elapsed_ms();
  return transfers;
}

/// Exact toolchain counters of a pass (identical on every run of a seed).
struct XformTotals {
  std::uint64_t blocks = 0;
  std::uint64_t pad_nops = 0;
  std::uint64_t text_in = 0;
  std::uint64_t text_out = 0;

  void add(const sofia::xform::TransformStats& s) {
    blocks += s.layout.exec_blocks + s.layout.mux_blocks + s.layout.forward_blocks +
              s.layout.thunk_blocks;
    pad_nops += s.layout.pad_nops;
    text_in += s.text_bytes_in;
    text_out += s.text_bytes_out;
  }
  double text_ratio() const {
    return text_in == 0 ? 0.0 : static_cast<double>(text_out) / static_cast<double>(text_in);
  }
  void put(Metrics& m) const {
    m.set("xform.blocks", static_cast<double>(blocks), "count");
    m.set("xform.pad_nops", static_cast<double>(pad_nops), "count");
    m.set("xform.text_bytes", static_cast<double>(text_out), "count");
    m.set("xform.text_ratio", text_ratio(), "ratio");
  }
};

}  // namespace perfbench
