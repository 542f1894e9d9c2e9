// Layer probes through public interfaces, run by every traced run: block
// cipher encrypt, scheme Sealer::seal / Opener::open per block of one
// hardened image, and the functional backend per retired instruction over
// the registry workloads. Also the ADPCM accuracy row.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "crypto/key_set.hpp"
#include "isa/isa.hpp"
#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using namespace sofia;

const char* cipher_label(crypto::CipherKind kind) {
  return kind == crypto::CipherKind::kRectangle80 ? "rectangle80" : "speck64";
}

constexpr crypto::CipherKind kCiphers[] = {crypto::CipherKind::kRectangle80,
                                           crypto::CipherKind::kSpeck64_128};

/// Probe results are written here so no timed loop can be optimized away.
volatile std::uint64_t probe_sink = 0;

/// Median over `reps` repetitions of fn()'s ns per unit; fn returns units.
template <typename F>
double median_ns_per_unit(int reps, F&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const double units = static_cast<double>(fn());
    samples.push_back(seconds_since(t0) * 1e9 / std::max(1.0, units));
  }
  return median(samples);
}

void probe_ciphers(std::uint64_t seed, Metrics& out) {
  for (const auto kind : kCiphers) {
    Rng rng(seed);
    const auto keys = crypto::KeySet::random(kind, rng);
    const auto cipher = crypto::make_cipher(kind, keys.k1);
    std::uint64_t block = rng.next_u64();
    const int n = kind == crypto::CipherKind::kRectangle80 ? 20000 : 200000;
    const double ns = median_ns_per_unit(7, [&] {
      for (int i = 0; i < n; ++i) block = cipher->encrypt(block);  // chained
      return n;
    });
    probe_sink = block;
    out.set(std::string("crypto.") + cipher_label(kind) + ".encrypt_ns", ns, "ns");
  }
}

/// Seal and open every block of one hardened image under each scheme ×
/// cipher. Sealed words must equal the image's words and every open must
/// verify; a mismatch counts as a failed probe.
void probe_schemes(std::uint64_t seed, Metrics& out, std::uint64_t& failed) {
  const auto& wl = workloads::workload("adpcm_encode");
  for (const auto& entry : scheme::scheme_registry()) {
    for (const auto kind : kCiphers) {
      pipeline::DeviceProfile profile;
      profile.scheme = std::string(entry.name);
      profile.cipher = kind;
      profile.key_source = pipeline::KeySource::kSeed;
      profile.key_seed = seed;
      auto p = pipeline::Pipeline::from_workload(wl, seed, wl.default_size, profile);
      const auto& hard = p.hardened();
      const auto& img = hard.image;
      const auto keys = profile.keys();
      const auto& sch = entry.get();
      const auto sealer = sch.make_sealer(keys, profile.granularity);
      const auto opener = sch.make_opener(keys, img.omega, profile.granularity);
      const std::uint32_t b = hard.layout.policy().words_per_block;

      struct Prepared {
        scheme::BlockInfo info;
        std::vector<std::uint32_t> insts;
        std::vector<std::uint32_t> raw;
        scheme::EntryPath path;
      };
      std::vector<Prepared> blocks;
      for (const auto& block : hard.layout.blocks()) {
        Prepared pr;
        pr.info.is_mux = block.kind == xform::BlockKind::kMux;
        pr.info.base_word = block.base_word;
        pr.info.pred1_word = block.pred1_word;
        pr.info.pred2_word = block.pred2_word;
        pr.info.entry1_label = block.entry1_label;
        pr.info.entry2_label = block.entry2_label;
        pr.info.exit_label = block.exit_label;
        for (const auto& pi : block.insts) pr.insts.push_back(isa::encode(pi.inst));
        pr.path = scheme::entry_path(pr.info.is_mux ? 1 : 0, b);
        const std::size_t first = block.base_word - img.text_base / 4;
        pr.raw.assign(b, 0);
        for (const std::uint32_t j : pr.path.sched) pr.raw[j] = img.text[first + j];
        const auto sealed = sealer->seal(pr.info, pr.insts);
        if (!std::equal(sealed.begin(), sealed.end(), img.text.begin() + first)) ++failed;
        blocks.push_back(std::move(pr));
      }

      const int rounds = std::max<int>(1, 2000 / static_cast<int>(blocks.size() + 1));
      std::uint64_t sink = 0;
      const double seal_ns = median_ns_per_unit(5, [&] {
        for (int r = 0; r < rounds; ++r)
          for (const auto& pr : blocks) sink += sealer->seal(pr.info, pr.insts)[0];
        return rounds * blocks.size();
      });
      std::uint64_t rejected = 0;
      const double open_ns = median_ns_per_unit(5, [&] {
        for (int r = 0; r < rounds; ++r)
          for (const auto& pr : blocks) {
            const auto dev = opener->open(pr.info.base_word, pr.info.pred1_word, pr.path, pr.raw);
            if (dev.verify_cause != sim::ResetCause::kNone) ++rejected;
            sink += dev.plain[dev.first_inst];
          }
        return rounds * blocks.size();
      });
      if (rejected != 0) ++failed;
      probe_sink = sink;
      const std::string prefix = scheme_metric_prefix(entry.name, cipher_label(kind));
      out.set(prefix + ".open_ns", open_ns, "ns");
      out.set(prefix + ".seal_ns", seal_ns, "ns");
    }
  }
}

/// Functional backend host time per retired instruction, SOFIA images of
/// every registry workload at half size. Outputs must match the golden model.
void probe_functional(std::uint64_t seed, Metrics& out, std::uint64_t& failed) {
  double run_ns = 0;
  std::uint64_t insts = 0;
  for (const auto& wl : workloads::all_workloads()) {
    pipeline::DeviceProfile profile;
    profile.backend = "functional";
    const std::uint32_t size = std::max(4u, wl.default_size / 2);
    auto p = pipeline::Pipeline::from_workload(wl, seed, size, profile);
    p.hardened();
    const auto t0 = Clock::now();
    const auto& run = p.run();
    run_ns += seconds_since(t0) * 1e9;
    insts += run.stats.insts;
    if (!run.ok() || run.output != wl.golden(seed, size)) ++failed;
  }
  out.set("sim.functional.ns_per_inst", run_ns / static_cast<double>(std::max<std::uint64_t>(1, insts)),
          "ns");
}

}  // namespace

void run_layer_probes(const Options& opts, Metrics& out, std::uint64_t& failed) {
  const auto t0 = Clock::now();
  probe_ciphers(opts.seed, out);
  probe_schemes(opts.seed, out, failed);
  probe_functional(opts.seed, out, failed);
  std::printf("layer probes (%.2f s):\n", seconds_since(t0));
  for (const auto& e : out.entries())
    if (e.name.rfind("crypto.", 0) == 0 || e.name.rfind("scheme.", 0) == 0 ||
        e.name == "sim.functional.ns_per_inst")
      report(e.name, e.value, e.unit);
}

void report_adpcm_accuracy() {
  // bench_adpcm_overhead's configuration: seed 1, 8192 samples, the
  // paper-default (pipelined) device, encoder + decoder combined.
  double text_v = 0, text_s = 0, cycles_v = 0, cycles_s = 0;
  for (const char* name : {"adpcm_encode", "adpcm_decode"}) {
    auto p = pipeline::Pipeline::from_workload(workloads::workload(name), 1, 8192);
    const auto m = p.measure();
    text_v += m.vanilla_text_bytes;
    text_s += m.sofia_text_bytes;
    cycles_v += static_cast<double>(m.vanilla_cycles);
    cycles_s += static_cast<double>(m.sofia_cycles);
  }
  std::printf("accuracy row (model unvalidated against hardware; reported, not gated):\n");
  std::printf("  ADPCM enc+dec text ratio   %.3fx   paper 2.41x\n", text_s / text_v);
  std::printf("  ADPCM enc+dec cycle ovh   %+.1f%%   paper +13.7%%\n",
              100.0 * (cycles_s / cycles_v - 1.0));
}

}  // namespace perfbench
