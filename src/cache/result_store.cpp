#include "cache/result_store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia::cache {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// KeyBuilder
// ---------------------------------------------------------------------------

namespace {

void put_u64_le(support::Sha256& h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(bytes, sizeof bytes);
}

}  // namespace

KeyBuilder::KeyBuilder(std::string_view domain) {
  prefix(domain, 0);
}

void KeyBuilder::prefix(std::string_view label, std::uint64_t size) {
  put_u64_le(hasher_, label.size());
  hasher_.update(label);
  put_u64_le(hasher_, size);
}

KeyBuilder& KeyBuilder::field(std::string_view label, std::string_view value) {
  prefix(label, value.size());
  hasher_.update(value);
  return *this;
}

KeyBuilder& KeyBuilder::field(std::string_view label,
                              const std::vector<std::uint8_t>& bytes) {
  prefix(label, bytes.size());
  hasher_.update(bytes);
  return *this;
}

KeyBuilder& KeyBuilder::field(std::string_view label, std::uint64_t value) {
  prefix(label, 8);
  put_u64_le(hasher_, value);
  return *this;
}

Key KeyBuilder::finish() { return hasher_.digest(); }

// ---------------------------------------------------------------------------
// Entry format
// ---------------------------------------------------------------------------

namespace {

std::string entry_header(const std::string& key_hex, std::string_view kind,
                         std::string_view payload) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", kEntrySchema);
  w.member("key", key_hex);
  w.member("kind", kind);
  w.member("payload_bytes", static_cast<std::uint64_t>(payload.size()));
  w.member("payload_sha256", support::sha256_hex(payload));
  w.end_object();
  return w.str();
}

/// Parsed header fields, or an explanation of why there aren't any.
struct Header {
  std::string kind;
  std::uint64_t payload_bytes = 0;
  std::string payload_sha256;
  std::string key_hex;
};

/// Parse the header line (everything before the first '\n'); returns the
/// problem as a string, empty on success.
std::string parse_header(std::string_view line, Header& out) {
  try {
    const json::Value doc = json::parse(line);
    if (doc.string_at("schema", "header") != kEntrySchema)
      return "unrecognized entry schema";
    out.key_hex = doc.string_at("key", "header");
    out.kind = doc.string_at("kind", "header");
    out.payload_bytes = doc.uint_at("payload_bytes", "header");
    out.payload_sha256 = doc.string_at("payload_sha256", "header");
    return "";
  } catch (const std::exception& e) {
    return std::string("header parse failed: ") + e.what();
  }
}

/// Read an entry file and validate everything that does not need the
/// caller's expectations (header shape, payload length, payload digest,
/// key-vs-filename agreement). Returns the problem, empty on success.
std::string read_entry(const fs::path& path, const std::string& expected_key,
                       Header& header, std::string& payload) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return "cannot open entry";
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return "read failed";
  const auto newline = contents.find('\n');
  if (newline == std::string::npos) return "truncated (no header line)";
  if (const auto problem =
          parse_header(std::string_view(contents).substr(0, newline), header);
      !problem.empty())
    return problem;
  if (header.key_hex != expected_key)
    return "header key does not match the entry's file name";
  payload = contents.substr(newline + 1);
  if (payload.size() != header.payload_bytes)
    return "payload is " + std::to_string(payload.size()) +
           " byte(s), header promises " +
           std::to_string(header.payload_bytes);
  if (support::sha256_hex(payload) != header.payload_sha256)
    return "payload digest mismatch (corrupt entry)";
  return "";
}

std::string unique_temp_name(const std::string& key_hex) {
  static std::atomic<std::uint64_t> counter{0};
#ifdef _WIN32
  const auto pid = static_cast<std::uint64_t>(_getpid());
#else
  const auto pid = static_cast<std::uint64_t>(::getpid());
#endif
  return ".tmp-" + key_hex.substr(0, 8) + "-" + std::to_string(pid) + "-" +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

// ---------------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------------

struct ResultStore::Counters {
  std::mutex mutex;
  Stats stats;
};

ResultStore::ResultStore(std::filesystem::path root, WarnFn warn)
    : root_(std::move(root)),
      warn_(std::move(warn)),
      counters_(std::make_shared<Counters>()) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw Error("cache: cannot create root '" + root_.string() +
                "': " + ec.message());
}

void ResultStore::warn(const std::string& message) const {
  if (warn_) warn_(message);
}

std::filesystem::path ResultStore::entry_path(const Key& key) const {
  const std::string hex = to_hex(key);
  return root_ / hex.substr(0, 2) /
         (hex + std::string(kEntryExtension));
}

std::optional<std::string> ResultStore::load(const Key& key,
                                             std::string_view kind) {
  const std::string hex = to_hex(key);
  const fs::path path = entry_path(key);
  const auto miss = [&](const std::string& why) -> std::optional<std::string> {
    if (!why.empty())
      warn("cache: entry " + hex.substr(0, 12) + "… is unusable (" + why +
           "); re-executing");
    const std::lock_guard<std::mutex> lock(counters_->mutex);
    ++counters_->stats.misses;
    return std::nullopt;
  };

  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return miss("");  // silent: never written

  Header header;
  std::string payload;
  if (const auto problem = read_entry(path, hex, header, payload);
      !problem.empty())
    return miss(problem);
  if (header.kind != kind)
    return miss("kind is '" + header.kind + "', expected '" +
                std::string(kind) + "'");

  // Touch the entry so LRU eviction (gc) sees the use; best-effort.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

  const std::lock_guard<std::mutex> lock(counters_->mutex);
  ++counters_->stats.hits;
  return payload;
}

void ResultStore::store(const Key& key, std::string_view kind,
                        std::string_view payload) {
  const std::string hex = to_hex(key);
  const fs::path path = entry_path(key);
  const auto fail = [&](const std::string& why) {
    warn("cache: could not store entry " + hex.substr(0, 12) + "… (" + why +
         ")");
    const std::lock_guard<std::mutex> lock(counters_->mutex);
    ++counters_->stats.failures;
  };

  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) return fail("mkdir: " + ec.message());

  // A unique temp file in the destination directory, so the final rename
  // is atomic on every POSIX filesystem.
  const fs::path tmp = path.parent_path() / unique_temp_name(hex);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return fail("cannot create temp file");
    const std::string header = entry_header(hex, kind, payload);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.put('\n');
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return fail("write failed (disk full?)");
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    fs::remove(tmp, rm);
    return fail("rename: " + ec.message());
  }
  const std::lock_guard<std::mutex> lock(counters_->mutex);
  ++counters_->stats.stored;
}

Stats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(counters_->mutex);
  return counters_->stats;
}

std::unique_ptr<ResultStore> ResultStore::open(const std::string& dir,
                                               WarnFn warn) {
  std::string root = dir;
  if (root.empty()) {
    if (const char* env = std::getenv("SOFIA_CACHE");
        env != nullptr && env[0] != '\0')
      root = env;
  }
  if (root.empty()) return nullptr;
  return std::make_unique<ResultStore>(fs::path(root), std::move(warn));
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

namespace {

bool is_entry_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() &&
         entry.path().extension() == kEntryExtension;
}

bool is_temp_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() &&
         entry.path().filename().string().rfind(".tmp-", 0) == 0;
}

}  // namespace

std::vector<EntryInfo> scan(const std::filesystem::path& root) {
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!is_entry_file(*it)) continue;
    EntryInfo info;
    info.path = it->path();
    info.key_hex = it->path().stem().string();
    info.file_bytes = it->file_size(ec);
    if (ec) ec.clear();
    info.mtime = it->last_write_time(ec);
    if (ec) ec.clear();
    std::ifstream in(info.path, std::ios::binary);
    std::string line;
    if (std::getline(in, line)) {
      Header header;
      if (parse_header(line, header).empty()) {
        info.kind = header.kind;
        info.payload_bytes = header.payload_bytes;
        info.header_ok = true;
      }
    }
    entries.push_back(std::move(info));
  }
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return a.key_hex < b.key_hex;
            });
  return entries;
}

VerifyReport verify_entries(const std::filesystem::path& root) {
  VerifyReport report;
  for (const auto& info : scan(root)) {
    ++report.checked;
    Header header;
    std::string payload;
    const auto problem = read_entry(info.path, info.key_hex, header, payload);
    if (problem.empty()) {
      ++report.ok;
    } else {
      ++report.bad;
      report.problems.push_back(info.path.filename().string() + ": " +
                                problem);
    }
  }
  return report;
}

GcReport gc(const std::filesystem::path& root, std::uint64_t max_bytes) {
  GcReport report;
  std::error_code ec;

  // Stale temp files: anything a dead writer left behind. A live writer
  // holds its temp file for milliseconds; one minute of age is decisive.
  const auto now = fs::file_time_type::clock::now();
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!is_temp_file(*it)) continue;
    std::error_code fec;
    const auto mtime = it->last_write_time(fec);
    if (fec) continue;
    if (now - mtime > std::chrono::minutes(1)) {
      fs::remove(it->path(), fec);
      if (!fec) ++report.tmp_removed;
    }
  }

  auto entries = scan(root);
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.file_bytes;

  // Oldest-mtime first; load() touches entries, so this is LRU.
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.key_hex < b.key_hex;
            });
  for (const auto& e : entries) {
    if (total <= max_bytes) {
      ++report.kept;
      report.kept_bytes += e.file_bytes;
      continue;
    }
    std::error_code rec;
    fs::remove(e.path, rec);
    if (rec) {
      ++report.kept;
      report.kept_bytes += e.file_bytes;
      continue;
    }
    total -= e.file_bytes;
    ++report.removed;
    report.removed_bytes += e.file_bytes;
  }
  return report;
}

}  // namespace sofia::cache
