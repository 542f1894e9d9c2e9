#include "driver/pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "support/cli.hpp"
#include "support/error.hpp"

namespace sofia::driver {

unsigned for_each_index(std::size_t count, unsigned threads,
                        const std::function<void(std::size_t)>& fn) {
  const auto max_threads = static_cast<unsigned>(std::max<std::size_t>(count, 1));
  threads = std::clamp(threads, 1u, max_threads);

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return threads;
}

void ShardSpec::validate() const {
  if (count == 0) throw Error("shard: count must be >= 1");
  if (index >= count)
    throw Error("shard: index " + std::to_string(index) +
                " out of range for " + std::to_string(count) + " shard(s)");
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  const auto parse_num = [&](std::string_view part) -> std::uint32_t {
    std::uint64_t v = 0;
    if (!cli::parse_number(part, v) || v > 0xFFFFFFFFull)
      throw Error("shard: expected K/N with K and N in [0, 2^32), got '" +
                  std::string(text) + "'");
    return static_cast<std::uint32_t>(v);
  };
  if (slash == std::string_view::npos)
    throw Error("shard: expected K/N syntax, got '" + std::string(text) + "'");
  ShardSpec shard;
  shard.index = parse_num(text.substr(0, slash));
  shard.count = parse_num(text.substr(slash + 1));
  shard.validate();
  return shard;
}

std::string ShardSpec::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

std::vector<std::uint64_t> shard_slice(std::uint64_t total, ShardSpec shard) {
  shard.validate();
  std::vector<std::uint64_t> slice;
  if (total > shard.index)
    slice.reserve(
        static_cast<std::size_t>((total - shard.index - 1) / shard.count + 1));
  for (std::uint64_t g = shard.index; g < total; g += shard.count)
    slice.push_back(g);
  return slice;
}

bool cached_job(cache::ResultStore* store, std::string_view kind,
                std::uint64_t job, const std::function<cache::Key()>& key,
                const std::function<bool(const std::string&)>& decode,
                const std::function<bool()>& run,
                const std::function<std::string()>& encode) {
  if (store == nullptr) {
    run();
    return false;
  }
  const cache::Key k = key();
  if (auto payload = store->load(k, kind)) {
    if (decode(*payload)) return true;
    store->warn("cache: " + std::string(kind) + " payload for job " +
                std::to_string(job) + " is undecodable; re-executing");
  }
  if (run()) store->store(k, kind, encode());
  return false;
}

std::vector<json::Value> parse_merge_inputs(
    const std::vector<std::string>& documents, std::string_view schema,
    std::initializer_list<std::string_view> header) {
  if (documents.empty()) throw Error("merge: no input documents");
  std::vector<json::Value> parsed;
  parsed.reserve(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    const auto label = "merge: document " + std::to_string(d);
    const auto& doc = parsed.emplace_back(json::parse(documents[d]));
    const auto* s = doc.find("schema");
    if (s == nullptr || s->as_string("schema") != schema)
      throw Error(label + " is not a " + std::string(schema) + " document");
    for (const auto key : header)
      if (doc.at(key, label) != parsed.front().at(key, "merge: document 0"))
        throw Error(label + " disagrees with document 0 on '" +
                    std::string(key) + "'");
  }
  return parsed;
}

}  // namespace sofia::driver
