#include "pipeline/pipeline.hpp"

#include <utility>

#include "assembler/image_io.hpp"
#include "assembler/link.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace sofia::pipeline {

Pipeline::Pipeline(std::string name, DeviceProfile profile)
    : name_(std::move(name)), profile_(profile) {
  // Resolve a valid backend eagerly: backend() then never mutates, so the
  // const run_image() overloads stay safe to call concurrently on a shared
  // session (Backend::run itself is documented concurrency-safe). An
  // unknown name is still reported lazily, with stage context, by backend().
  if (sim::is_backend(profile_.backend))
    backend_ = sim::make_backend(profile_.backend);
}

void Pipeline::fail(const char* stage, const std::string& what) const {
  throw Error("pipeline[" + name_ + "]/" + stage + ": " + what);
}

template <typename F>
auto Pipeline::run_stage(const char* stage, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& e) {
    fail(stage, e.what());
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Pipeline Pipeline::from_source(std::string source, DeviceProfile profile,
                               std::string name) {
  Pipeline p(std::move(name), profile);
  p.source_ = std::move(source);
  return p;
}

Pipeline Pipeline::from_source_file(const std::string& path,
                                    DeviceProfile profile) {
  Pipeline p(path, profile);
  // Binary-mode read via support/io, matching the tools (a text-mode read
  // would diverge on CRLF sources and hide short reads).
  p.run_stage("read", [&] { p.source_ = io::read_file(path); });
  return p;
}

Pipeline Pipeline::from_workload(const workloads::WorkloadSpec& spec,
                                 std::uint64_t seed, std::uint32_t size,
                                 DeviceProfile profile) {
  Pipeline p(spec.name, profile);
  p.run_stage("generate", [&] {
    p.source_ = spec.source(seed, size);
    p.expected_ = spec.golden(seed, size);
  });
  return p;
}

Pipeline Pipeline::from_workload(std::string_view workload_name,
                                 std::uint64_t seed, std::uint32_t size,
                                 DeviceProfile profile) {
  return from_workload(workloads::workload(workload_name), seed, size, profile);
}

Pipeline Pipeline::from_image_file(const std::string& path,
                                   DeviceProfile profile) {
  Pipeline p(path, profile);
  p.run_stage("load", [&] { p.loaded_image_ = assembler::load_image_file(path); });
  return p;
}

Pipeline Pipeline::from_image(assembler::LoadImage image, DeviceProfile profile,
                              std::string name) {
  Pipeline p(std::move(name), profile);
  p.loaded_image_ = std::move(image);
  return p;
}

// ---------------------------------------------------------------------------
// Session configuration
// ---------------------------------------------------------------------------

void Pipeline::set_sim_config(sim::SimConfig config) {
  base_config_ = std::move(config);
  run_.reset();
  vanilla_run_.reset();
}

void Pipeline::set_memory_layout(assembler::MemoryLayout mem) {
  mem_ = mem;
  vanilla_image_.reset();
  hardened_.reset();
  model_.reset();
  run_.reset();
  vanilla_run_.reset();
}

void Pipeline::set_elide_unreachable(bool elide) {
  elide_unreachable_ = elide;
  hardened_.reset();
  model_.reset();
  run_.reset();
}

void Pipeline::set_expected_output(std::string expected) {
  expected_ = std::move(expected);
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

const assembler::Program& Pipeline::program() {
  if (!program_) {
    if (!source_)
      fail("program", "session was built from an image; no source available");
    run_stage("program",
              [&] { program_ = assembler::assemble(*source_); });
  }
  return *program_;
}

const assembler::LoadImage& Pipeline::vanilla_image() {
  if (!vanilla_image_) {
    if (loaded_image_ && !loaded_image_->sofia) return *loaded_image_;
    const auto& prog = program();
    run_stage("link-vanilla",
              [&] { vanilla_image_ = assembler::link_vanilla(prog, mem_); });
  }
  return *vanilla_image_;
}

const xform::TransformResult& Pipeline::hardened() {
  if (!hardened_) {
    if (loaded_image_)
      fail("transform", "session was built from an image; no source available");
    const auto& prog = program();
    run_stage("transform", [&] {
      hardened_ = xform::transform(
          prog, profile_.keys(),
          profile_.transform_options(mem_, elide_unreachable_));
    });
  }
  return *hardened_;
}

const assembler::LoadImage& Pipeline::image() {
  if (loaded_image_) return *loaded_image_;
  return hardened().image;
}

sim::SimConfig Pipeline::effective_sim_config() const {
  sim::SimConfig config = base_config_;
  profile_.configure(config);
  return config;
}

const sim::Backend& Pipeline::backend() const {
  if (backend_) return *backend_;
  // The constructor only resolves registered names; re-run the registry
  // lookup here for its descriptive error (valid choices included).
  try {
    sim::make_backend(profile_.backend);
  } catch (const std::exception& e) {
    fail("backend", e.what());
  }
  fail("backend", "unknown backend '" + profile_.backend + "'");
}

const scheme::ProtectionScheme& Pipeline::scheme() const {
  try {
    return scheme::get_scheme(profile_.scheme);
  } catch (const std::exception& e) {
    fail("scheme", e.what());
  }
}

const sim::RunResult& Pipeline::run() {
  if (!run_) {
    const auto& img = image();
    const auto& be = backend();
    run_stage("run", [&] { run_ = be.run(img, effective_sim_config()); });
  }
  return *run_;
}

const sim::RunResult& Pipeline::run_vanilla() {
  if (!vanilla_run_) {
    const auto& img = vanilla_image();
    const auto& be = backend();
    run_stage("run-vanilla",
              [&] { vanilla_run_ = be.run(img, effective_sim_config()); });
  }
  return *vanilla_run_;
}

verify::DeviceSpec Pipeline::device_spec() const {
  verify::DeviceSpec spec;
  spec.keys = profile_.keys();
  spec.scheme = profile_.scheme;
  spec.granularity = profile_.granularity;
  spec.policy = profile_.policy;
  return spec;
}

verify::Report Pipeline::lint() { return lint_image(image()); }

verify::Report Pipeline::lint_image(const assembler::LoadImage& img) {
  // Image sessions have no program to model: the lint degrades to the
  // metadata/geometry/key-material subset (documented on verify::lint).
  if (loaded_image_ && !source_)
    return run_stage("lint",
                     [&] { return verify::lint(img, device_spec()); });
  if (!model_) {
    const auto& hard = hardened();
    run_stage("lint", [&] { model_ = verify::model_of(hard); });
  }
  return run_stage(
      "lint", [&] { return verify::lint(*model_, img, device_spec()); });
}

sim::RunResult Pipeline::run_image(const assembler::LoadImage& img) const {
  return backend().run(img, effective_sim_config());
}

sim::RunResult Pipeline::run_image(const assembler::LoadImage& img,
                                   sim::SimConfig config) const {
  profile_.configure(config);
  return backend().run(img, config);
}

Measurement Pipeline::measure() {
  const auto& v = run_vanilla();
  if (!v.ok())
    fail("measure", "vanilla run failed (" + std::string(to_string(v.status)) +
                        ")");
  const std::string& expect = expected_ ? *expected_ : v.output;
  if (expected_ && v.output != *expected_)
    fail("measure", "vanilla output does not match the golden model");

  const auto& s = run();
  if (!s.ok())
    fail("measure",
         "SOFIA run failed (" + std::string(to_string(s.status)) + ")");
  if (s.output != expect)
    fail("measure", "SOFIA output does not match the expected output");

  Measurement m;
  m.name = name_;
  m.vanilla_text_bytes = vanilla_image().text_bytes();
  m.vanilla_cycles = v.stats.cycles;
  m.vanilla_stats = v.stats;
  m.sofia_text_bytes = image().text_bytes();
  m.sofia_cycles = s.stats.cycles;
  m.sofia_stats = s.stats;
  return m;
}

}  // namespace sofia::pipeline
