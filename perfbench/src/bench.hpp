// Shared pieces of the repository benchmark: run options, the metric sink,
// the in-memory span recorder and small timing helpers. Each workload lives
// in its own translation unit and drives the toolchain only through the
// public headers of src/ (driver, campaign, pipeline, cache, ...).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Minimal-size variant of the workload (the self-test's run).
  bool smoke = false;
  /// Replace the expected result of the first checked item with a wrong
  /// one; the self-test asserts that the mismatch is counted as a failure.
  bool inject_wrong_expected = false;
  /// Stop right before the first timed call (set-up time probe).
  bool setup_only = false;
  unsigned threads = 1;               ///< min(hardware threads, 4)
  std::filesystem::path workdir;      ///< scratch space for cache stores
  std::filesystem::path trace_dir;    ///< where span files are written
};

// ---- clock -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Announce the end of set-up: prints the time from the program's first
/// static initialiser to this call (its set-up time) for the wrapper.
void mark_ready();

// ---- results ---------------------------------------------------------------

/// Metrics in emission order. Values are reported as measured.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit);
  /// Value of a metric that was set (0 when it was not).
  double get(std::string_view name) const;

  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// Print a human-readable report line ("  key = value").
void report(std::string_view key, std::string_view value);
void report(std::string_view key, double value, std::string_view unit);

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Host memory high-water mark of this process, MiB.
double peak_rss_mb();

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into the same thread's spans
  std::uint32_t thread = 0;
  std::int64_t item = -1;     ///< job / trial / image index
  double dur_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

struct TraceBuffer;

/// In-memory span recorder. Each thread appends to its own buffer, so
/// recording takes no lock after a thread's first span; spans nest per
/// thread through RAII scopes. Everything is written out after the run.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t item);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (the scope is still open), ms.
    double elapsed_ms() const;

   private:
    TraceBuffer* buf_;
    std::size_t index_;
  };

  Scope span(const char* name, std::int64_t item = -1) {
    return Scope(*this, name, item);
  }

  /// All spans, thread by thread (parents index within the same thread).
  std::vector<Span> spans() const;

  /// Total / self time per span name, largest self time first.
  void print_self_time_table() const;

  /// Durations (ms) of every span with this name.
  std::vector<double> durations(std::string_view name) const;
  double mean_ms(std::string_view name) const;

  /// Worker idle tail: from the moment the first thread finished its last
  /// root span whose name starts with `prefix` to the moment the last one
  /// did, in seconds.
  double idle_tail_s(std::string_view prefix) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write(const std::filesystem::path& path) const;

 private:
  friend class Scope;
  TraceBuffer* buffer_for_this_thread();

  std::uint64_t id_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

// ---- workloads -------------------------------------------------------------

Outcome run_sweep_scheme(const Options& opts);
Outcome run_campaign_full(const Options& opts);
Outcome run_install_lint(const Options& opts);

/// Layer probes shared by every traced run: cipher encrypt, scheme seal /
/// open and the functional backend, each timed through public interfaces.
void run_layer_probes(const Options& opts, Metrics& out, std::uint64_t& failed);

/// The ADPCM encode+decode accuracy row (bench_adpcm_overhead's
/// configuration) beside the paper's reported numbers. Reported only.
void report_adpcm_accuracy();

/// Metric name for a scheme × cipher pair, e.g. "scheme.sponge.speck64".
std::string scheme_metric_prefix(std::string_view scheme, std::string_view cipher);

}  // namespace perfbench
