// Workload install-lint: the sofia_asm -> sofia_lint install-and-verify
// path on one thread, with no simulation. One item is
// Pipeline::from_workload -> hardened() -> lint() for one (registry
// workload × scheme × cipher × seed) at the workload's default size; a
// pass covers every workload, scheme and cipher, and consecutive passes
// use consecutive seeds starting at the workload seed.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "assembler/image_io.hpp"
#include "bench.hpp"
#include "scheme/scheme.hpp"
#include "stages.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

using namespace sofia;

struct Item {
  const workloads::WorkloadSpec* workload = nullptr;
  std::uint32_t size = 0;
  pipeline::DeviceProfile profile;
};

std::vector<Item> make_items(const Options& opts) {
  std::vector<Item> items;
  for (const auto& wl : workloads::all_workloads())
    for (const auto& scheme : scheme::scheme_names())
      for (const auto cipher :
           {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
        Item item;
        item.workload = &wl;
        item.size = opts.smoke ? std::max(4u, wl.default_size / 16) : wl.default_size;
        item.profile.scheme = scheme;
        item.profile.cipher = cipher;
        items.push_back(std::move(item));
      }
  return items;
}

/// Exact counters of the reference pass.
struct Counts {
  XformTotals xform;
  std::uint64_t blocks_checked = 0;
  std::uint64_t stores_proven_safe = 0;
  support::Sha256 images;

  void add(pipeline::Pipeline& p, const verify::Report& report) {
    xform.add(p.hardened().stats);
    blocks_checked += report.blocks_checked;
    stores_proven_safe += report.stores_proven_safe;
    images.update(assembler::serialize_image(p.image()));
  }
  void put(Metrics& m) const {
    xform.put(m);
    m.set("verify.blocks_checked", static_cast<double>(blocks_checked), "count");
    m.set("verify.stores_proven_safe", static_cast<double>(stores_proven_safe), "count");
  }
};

void report_counts(Counts& counts) {
  report("images_sha256", support::to_hex(counts.images.digest()));
  Metrics m;
  counts.put(m);
  for (const auto& e : m.entries()) report(e.name, e.value, e.unit);
}

bool check_verdict(const verify::Report& report, bool expect_clean, const Item& item) {
  if (report.clean() == expect_clean) return true;
  std::fprintf(stderr, "perfbench: %s / %s / %s: lint verdict %s, expected %s\n",
               item.workload->name.c_str(), item.profile.scheme.c_str(),
               std::string(crypto::to_string(item.profile.cipher)).c_str(),
               report.clean() ? "clean" : "not clean", expect_clean ? "clean" : "not clean");
  return false;
}

Outcome traced_run(const std::vector<Item>& items, const Options& opts) {
  Outcome out;
  // Untraced reference pass first (the wall clock the traced pass is
  // compared to), then the same items with a span around every stage call
  // and the CFG / verifier probe calls.
  const auto t0 = Clock::now();
  for (const Item& item : items) {
    auto p = pipeline::Pipeline::from_workload(*item.workload, opts.seed, item.size,
                                               item.profile);
    p.hardened();
    p.lint();
  }
  const double untraced_s = seconds_since(t0);

  Tracer tracer;
  Counts counts;
  std::uint64_t transfers = 0;
  double rules_ms = 0;  // lint() minus its model and dataflow parts
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    ++out.attempted;
    try {
      std::optional<pipeline::Pipeline> p;
      verify::Report report;
      {
        auto span = tracer.span("image", static_cast<std::int64_t>(i));
        p.emplace(traced_session(tracer, *item.workload, opts.seed, item.size, item.profile));
        { auto s = tracer.span("assembler.program"); p->program(); }
        { auto s = tracer.span("xform.hardened"); p->hardened(); }
        auto s = tracer.span("verify.lint");
        report = p->lint();
        rules_ms += s.elapsed_ms();
      }
      transfers += probe_verifier(tracer, p->hardened(), rules_ms);
      if (!check_verdict(report, true, item)) ++out.failed;
      counts.add(*p, report);
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: traced image %zu failed: %s\n", i, e.what());
    }
  }
  const double traced_s = seconds_since(t1);

  Metrics& m = out.metrics;
  const auto image_ms = tracer.durations("image");
  m.set("workloads.gen_ms", tracer.mean_ms("workloads.gen"), "ms");
  m.set("assembler.ms", tracer.mean_ms("assembler.program"), "ms");
  m.set("cfg.build_ms", tracer.mean_ms("cfg.build"), "ms");
  m.set("xform.ms", tracer.mean_ms("xform.hardened"), "ms");
  m.set("verify.model_ms", tracer.mean_ms("verify.model"), "ms");
  m.set("verify.dataflow_ms", tracer.mean_ms("verify.dataflow"), "ms");
  m.set("verify.lint_ms", rules_ms / static_cast<double>(items.size()), "ms");
  m.set("verify.dataflow_transfers", static_cast<double>(transfers), "count");
  counts.put(m);
  m.set("item_p50_ms", percentile(image_ms, 50), "ms");
  m.set("item_p99_ms", percentile(image_ms, 99), "ms");

  std::printf("traced run: %zu images on 1 thread\n", items.size());
  report("untraced_wall_s", untraced_s, "s");
  report("traced_wall_s", traced_s, "s");
  report("item samples", static_cast<double>(image_ms.size()), "count");
  report_counts(counts);
  std::printf("per-image attribution (ms): gen %.4f  assemble %.4f  transform %.4f "
              "(cfg %.4f)  lint %.4f = model %.4f + dataflow %.4f + rules %.4f\n",
              m.get("workloads.gen_ms"), m.get("assembler.ms"), m.get("xform.ms"),
              m.get("cfg.build_ms"), tracer.mean_ms("verify.lint"), m.get("verify.model_ms"),
              m.get("verify.dataflow_ms"), m.get("verify.lint_ms"));
  std::printf("self time by span:\n");
  tracer.print_self_time_table();
  tracer.write(opts.trace_dir / ("install-lint-seed" + std::to_string(opts.seed) + ".json"));

  run_layer_probes(opts, m, out.failed);
  return out;
}

}  // namespace

Outcome run_install_lint(const Options& opts) {
  const std::vector<Item> items = make_items(opts);
  mark_ready();
  if (opts.setup_only) return {};
  if (opts.trace) return traced_run(items, opts);

  Outcome out;
  std::vector<double> item_ms;
  double timed_s = 0;
  std::uint64_t passes = 0;
  Counts counts;
  const auto loop_start = Clock::now();
  do {
    const std::uint64_t seed = opts.seed + passes;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      ++out.attempted;
      try {
        const auto t0 = Clock::now();
        auto p = pipeline::Pipeline::from_workload(*item.workload, seed, item.size,
                                                   item.profile);
        p.hardened();
        const verify::Report report = p.lint();
        const double dt = seconds_since(t0);
        timed_s += dt;
        item_ms.push_back(dt * 1e3);
        const bool expect_clean = !(opts.inject_wrong_expected && passes == 0 && i == 0);
        if (!check_verdict(report, expect_clean, item)) ++out.failed;
        if (passes == 0) counts.add(p, report);
      } catch (const std::exception& e) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: image %zu failed: %s\n", i, e.what());
      }
    }
    if (passes == 0) {
      std::printf("reference pass (seed %llu, %zu images):\n",
                  static_cast<unsigned long long>(seed), items.size());
      report_counts(counts);
    }
    ++passes;
  } while (seconds_since(loop_start) < opts.seconds);

  std::printf("timed phase: %llu passes x %zu images on 1 thread, %.3f s\n",
              static_cast<unsigned long long>(passes), items.size(), timed_s);
  report("item_p50_ms", percentile(item_ms, 50), "ms");
  report("item_p99_ms", percentile(item_ms, 99), "ms");
  report("item samples", static_cast<double>(item_ms.size()), "count");
  out.metrics.set("items_per_s", static_cast<double>(out.attempted - out.failed) / timed_s, "1/s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace perfbench
