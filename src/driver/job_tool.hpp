// The command-line plumbing sofia_sweep and sofia_attack share: the
// --threads/--json/--cache/--cache-stats/--shard/--merge/--quiet flags, the
// merge mode, the result cache, where log lines go, and the error exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "driver/pool.hpp"
#include "support/cli.hpp"

namespace sofia::driver {

struct JobTool {
  /// `program` prefixes error lines; `error_exit` is a sofia::Error's exit.
  JobTool(std::string program, int error_exit);

  // The shared flags, filled by the parser (see add_flags()).
  std::uint32_t threads;  ///< default: hardware concurrency
  std::string json_path;
  std::string cache_dir;
  std::string cache_stats_path;
  std::string shard_text;
  std::string merge_out;
  std::vector<std::string> merge_inputs;
  bool quiet = false;

  // Set by run() before it calls the body.
  std::FILE* log = stdout;  ///< stderr while a document streams to stdout
  ShardSpec shard;
  std::unique_ptr<cache::ResultStore> store;  ///< null without a cache

  /// Declare the shared flags after the tool's own (in.json comes last).
  void add_flags(cli::Parser& parser);

  using MergeFn = std::function<std::string(const std::vector<std::string>&)>;

  /// Validate the shared flags, then either run the --merge mode or parse
  /// --shard, open the cache and return body()'s exit code.
  int run(const cli::Parser& parser, const MergeFn& merge,
          const std::function<int()>& body);

  /// "shard K/N of " for a sharded run, else "".
  std::string shard_note() const;

  /// Report the cache counters, then write render()'s --json document.
  void finish(const std::function<std::string()>& render) const;

 private:
  std::string program_;
  int error_exit_;
};

}  // namespace sofia::driver
