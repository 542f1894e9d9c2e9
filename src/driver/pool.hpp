// The job engine run_sweep() and run_campaign() share: the thread pool, the
// shard slice, the per-job cache step and the reading of merge inputs.
// Workers claim job indices from a single atomic counter and write each
// result into the job's own pre-sized slot, so the output order (and any
// JSON rendered from it) never depends on thread interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "support/json.hpp"

namespace sofia::driver {

/// Execute fn(i) for every i in [0, count) on `threads` workers (clamped to
/// [1, count]); returns the worker count actually used. fn is called at
/// most once per index and must confine its writes to index-owned state;
/// serializing any shared side effect (progress printing) is the caller's
/// job. Exceptions must not escape fn — capture failures in the slot.
unsigned for_each_index(std::size_t count, unsigned threads,
                        const std::function<void(std::size_t)>& fn);

/// One machine's slice of a multi-machine run: only the jobs with
/// index ≡ index (mod count). The default (0 of 1) is the whole job list.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool is_whole() const { return count <= 1; }
  /// Throws sofia::Error when count == 0 or index >= count.
  void validate() const;
  /// Parse the CLI "K/N" syntax.
  static ShardSpec parse(std::string_view text);
  /// The "K/N" text parse() reads (the documents' "shard" member).
  std::string to_string() const;
};

/// `shard`'s ascending slice of the job indices [0, total); a 1-of-N slice
/// costs O(total / N). Throws sofia::Error for an invalid shard.
std::vector<std::uint64_t> shard_slice(std::uint64_t total, ShardSpec shard);

/// The per-job result-cache step; true when the job was served from the
/// cache. Without a store it only calls run() (no key is built). Otherwise
/// decode() gets the payload stored under key(), filling the job's result
/// or returning false; an undecodable payload warns and is a miss. On a
/// miss run() executes the job and says whether encode() may be stored.
bool cached_job(cache::ResultStore* store, std::string_view kind,
                std::uint64_t job, const std::function<cache::Key()>& key,
                const std::function<bool(const std::string&)>& decode,
                const std::function<bool()>& run,
                const std::function<std::string()>& encode);

/// Parse the input documents of a shard merge. Each must carry
/// `"schema": schema` and the same `header` members as document 0; errors
/// name a document by its input position ("merge: document N").
std::vector<json::Value> parse_merge_inputs(
    const std::vector<std::string>& documents, std::string_view schema,
    std::initializer_list<std::string_view> header);

}  // namespace sofia::driver
