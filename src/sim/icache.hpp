// Direct-mapped instruction cache timing model. Functional data always
// comes from Memory; the cache only decides how many cycles a word takes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace sofia::sim {

class ICache {
 public:
  explicit ICache(const CacheConfig& config);

  /// Cycles needed to deliver the word at `addr` (1 on hit, the configured
  /// refill penalty on miss); updates cache state. Inline: both front ends
  /// call it for every fetched word.
  std::uint32_t access(std::uint32_t addr) {
    const std::uint32_t line_addr = addr >> line_bits_;
    const std::uint32_t index = line_addr & (num_lines_ - 1);
    const std::uint64_t tag = static_cast<std::uint64_t>(line_addr) + 1;
    if (tags_[index] == tag) {
      ++hits_;
      return 1;
    }
    ++misses_;
    tags_[index] = tag;
    return miss_penalty_;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t line_bits_;
  std::uint32_t num_lines_;
  std::uint32_t miss_penalty_;
  std::vector<std::uint64_t> tags_;  ///< tag+1, 0 = invalid
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sofia::sim
