#include "sim/icache.hpp"

#include <bit>

#include "support/error.hpp"

namespace sofia::sim {

ICache::ICache(const CacheConfig& config) : miss_penalty_(config.miss_penalty) {
  if (config.line_bytes < 4 || !std::has_single_bit(config.line_bytes) ||
      !std::has_single_bit(config.size_bytes) ||
      config.size_bytes < config.line_bytes)
    throw Error("icache: size and line must be powers of two, size >= line");
  line_bits_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  num_lines_ = config.size_bytes / config.line_bytes;
  tags_.assign(num_lines_, 0);
}

}  // namespace sofia::sim
