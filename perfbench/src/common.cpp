#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

// Stamped before any other static initialiser of the program (the core
// library's registries included) runs; constant-initialised before that.
Clock::time_point process_start;

__attribute__((constructor(101))) void stamp_process_start() { process_start = Clock::now(); }

}  // namespace

void mark_ready() {
  std::printf("perfbench-setup-s %.9f\n", seconds_since(process_start));
  std::fflush(stdout);
}

// ---- metrics ---------------------------------------------------------------

void Metrics::set(std::string name, double value, std::string unit) {
  for (auto& e : entries_)
    if (e.name == name) {
      e.value = value;
      e.unit = std::move(unit);
      return;
    }
  entries_.push_back({std::move(name), value, std::move(unit)});
}

double Metrics::get(std::string_view name) const {
  for (const auto& e : entries_)
    if (e.name == name) return e.value;
  return 0.0;
}

std::string scheme_metric_prefix(std::string_view scheme, std::string_view cipher) {
  return "scheme." + std::string(scheme) + "." + std::string(cipher);
}

void report(std::string_view key, std::string_view value) {
  std::printf("  %-34.*s %.*s\n", static_cast<int>(key.size()), key.data(),
              static_cast<int>(value.size()), value.data());
}

void report(std::string_view key, double value, std::string_view unit) {
  // Counts are exact integers; print every digit so two runs compare.
  std::printf(unit == "count" ? "  %-34.*s %.0f %.*s\n" : "  %-34.*s %.6g %.*s\n",
              static_cast<int>(key.size()), key.data(), value,
              static_cast<int>(unit.size()), unit.data());
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space;
  // getrusage's ru_maxrss would also count the parent it was forked from.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

// ---- spans -----------------------------------------------------------------

struct TraceBuffer {
  std::uint32_t thread = 0;
  Clock::time_point epoch;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< stack of open span indices
};

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

struct ThreadSlot {
  std::uint64_t tracer_id = 0;
  TraceBuffer* buf = nullptr;
};
thread_local ThreadSlot tl_slot;

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

}  // namespace

// Each tracer has a process-unique id, so a thread's cached buffer pointer
// can never be mistaken for a buffer of a later tracer.
Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)), epoch_(Clock::now()) {}

Tracer::~Tracer() = default;

TraceBuffer* Tracer::buffer_for_this_thread() {
  if (tl_slot.tracer_id == id_) return tl_slot.buf;
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  TraceBuffer* buf = buffers_.back().get();
  buf->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
  buf->epoch = epoch_;
  tl_slot = {id_, buf};
  return buf;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t item)
    : buf_(tracer.buffer_for_this_thread()), index_(buf_->spans.size()) {
  Span s;
  s.name = name;
  s.thread = buf_->thread;
  s.item = item;
  s.parent = buf_->open.empty() ? -1 : static_cast<std::int32_t>(buf_->open.back());
  if (item < 0 && s.parent >= 0) s.item = buf_->spans[static_cast<std::size_t>(s.parent)].item;
  buf_->spans.push_back(s);
  buf_->open.push_back(index_);
  buf_->spans[index_].start_ns = ns_since(buf_->epoch);
}

Tracer::Scope::~Scope() {
  buf_->spans[index_].end_ns = ns_since(buf_->epoch);
  buf_->open.pop_back();
}

double Tracer::Scope::elapsed_ms() const {
  return static_cast<double>(ns_since(buf_->epoch) - buf_->spans[index_].start_ns) / 1e6;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buf : buffers_)
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  return out;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans())
    if (name == s.name) out.push_back(s.dur_ms());
  return out;
}

double Tracer::mean_ms(std::string_view name) const {
  const auto d = durations(name);
  double total = 0;
  for (const double v : d) total += v;
  return d.empty() ? 0.0 : total / static_cast<double>(d.size());
}

double Tracer::idle_tail_s(std::string_view prefix) const {
  std::map<std::uint32_t, std::int64_t> last_end;
  for (const Span& s : spans())
    if (s.parent < 0 && std::string_view(s.name).starts_with(prefix))
      last_end[s.thread] = std::max(last_end[s.thread], s.end_ns);
  if (last_end.empty()) return 0.0;
  std::int64_t first = last_end.begin()->second;
  std::int64_t last = first;
  for (const auto& [thread, end] : last_end) {
    first = std::min(first, end);
    last = std::max(last, end);
  }
  return static_cast<double>(last - first) / 1e9;
}

void Tracer::print_self_time_table() const {
  struct Row {
    std::uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    // Children of a span run on its thread inside its interval, one after
    // another, so the time they cover is the sum of their durations.
    std::vector<double> child_ms(buf->spans.size(), 0.0);
    for (const Span& s : buf->spans)
      if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.dur_ms();
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      Row& row = rows[s.name];
      ++row.calls;
      row.total_ms += s.dur_ms();
      row.self_ms += s.dur_ms() - child_ms[i];
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("  %-28s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, row] : sorted)
    std::printf("  %-28s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(row.calls), row.total_ms, row.self_ms);
}

void Tracer::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"item\":%lld,\"parent\":%d}}",
                  first ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.item), s.parent);
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
