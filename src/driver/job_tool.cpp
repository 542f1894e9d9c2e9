#include "driver/job_tool.hpp"

#include <algorithm>
#include <thread>

#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace sofia::driver {

namespace {

/// The run's cache counters as a side document ({"cache": {...}} stanza) —
/// deliberately separate from the results document, which must stay
/// byte-identical with and without a cache.
std::string cache_stats_json(const cache::ResultStore& store) {
  const auto s = store.stats();
  json::Writer w(2);
  w.begin_object();
  w.member("schema", "sofia-cache-stats-v1");
  w.key("cache").begin_object();
  w.member("root", store.root().string());
  w.member("hits", s.hits);
  w.member("misses", s.misses);
  w.member("stored", s.stored);
  w.member("failures", s.failures);
  w.end_object();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

}  // namespace

JobTool::JobTool(std::string program, int error_exit)
    : threads(std::max(1u, std::thread::hardware_concurrency())),
      program_(std::move(program)),
      error_exit_(error_exit) {}

void JobTool::add_flags(cli::Parser& parser) {
  parser
      .option("--threads", threads, "N",
              "worker threads (default: hardware concurrency)")
      .option("--json", json_path, "PATH",
              "write the results document to PATH ('-' = stdout)")
      .option("--cache", cache_dir, "DIR",
              "content-addressed result cache: reuse prior results and "
              "store new ones (default: $SOFIA_CACHE when set)")
      .option("--cache-stats", cache_stats_path, "PATH",
              "write this run's cache hit/miss counters as a JSON document")
      .option("--shard", shard_text, "K/N",
              "run only job indices congruent to K mod N")
      .option("--merge", merge_out, "OUT.json",
              "merge shard documents (trailing args) into OUT.json and exit")
      .flag("--quiet", quiet, "suppress the progress table")
      .positional_list("in.json", merge_inputs);
}

int JobTool::run(const cli::Parser& parser, const MergeFn& merge,
                 const std::function<int()>& body) {
  if (threads < 1) return parser.fail("--threads must be >= 1");
  if (merge_out.empty() && !merge_inputs.empty())
    return parser.fail("unexpected argument '" + merge_inputs.front() +
                       "' (input documents are only valid with --merge)");

  // With the document on stdout, every informational line moves to stderr
  // so the output stream stays byte-clean for the collector.
  log = (json_path == "-" || merge_out == "-") ? stderr : stdout;

  try {
    if (!merge_out.empty()) {
      if (merge_inputs.empty())
        return parser.fail("--merge needs at least one input document");
      std::vector<std::string> documents;
      documents.reserve(merge_inputs.size());
      for (const auto& path : merge_inputs)
        documents.push_back(io::read_file(path));
      io::emit_document(merge_out, merge(documents));
      std::fprintf(log, "merged %zu document(s) into %s\n", documents.size(),
                   merge_out.c_str());
      return 0;
    }

    if (!shard_text.empty()) shard = ShardSpec::parse(shard_text);
    // Cache warnings (loud misses, store failures) always go to stderr so
    // they survive --quiet and never touch a stdout document.
    store = cache::ResultStore::open(
        cache_dir, [program = program_](const std::string& m) {
          std::fprintf(stderr, "%s: %s\n", program.c_str(), m.c_str());
        });
    if (store)
      std::fprintf(log, "cache: %s\n", store->root().string().c_str());
    if (!store && !cache_stats_path.empty())
      return parser.fail("--cache-stats needs --cache (or $SOFIA_CACHE)");
    return body();
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), e.what());
    return error_exit_;
  }
}

std::string JobTool::shard_note() const {
  return shard.is_whole() ? "" : "shard " + shard.to_string() + " of ";
}

void JobTool::finish(const std::function<std::string()>& render) const {
  if (store) {
    const auto cs = store->stats();
    std::fprintf(stderr,
                 "cache: %llu hit(s), %llu miss(es), %llu stored, "
                 "%llu failure(s)\n",
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.stored),
                 static_cast<unsigned long long>(cs.failures));
    if (!cache_stats_path.empty())
      io::emit_document(cache_stats_path, cache_stats_json(*store));
  }
  if (!json_path.empty()) {
    io::emit_document(json_path, render());
    if (json_path != "-") std::fprintf(log, "wrote %s\n", json_path.c_str());
  }
}

}  // namespace sofia::driver
