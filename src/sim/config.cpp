#include "sim/config.hpp"

#include <utility>

namespace sofia::sim {

namespace {

/// Little-endian appender for encode_config().
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void key(const crypto::CipherKey& k) {
    out_.insert(out_.end(), k.begin(), k.end());
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

}  // namespace

std::vector<std::uint8_t> encode_config(const SimConfig& c) {
  ByteWriter w;
  w.u32(c.fetch_queue);
  w.u32(c.redirect_bubble);
  w.u32(c.fetch_words_per_cycle);
  w.u32(c.icache.size_bytes);
  w.u32(c.icache.line_bytes);
  w.u32(c.icache.miss_penalty);
  w.u32(c.load_latency);
  w.u32(c.mul_latency);
  w.u8(static_cast<std::uint8_t>(c.keys.kind));
  w.key(c.keys.k1);
  w.key(c.keys.k2);
  w.key(c.keys.k3);
  w.u16(c.keys.omega);
  w.u32(c.policy.words_per_block);
  w.u32(c.policy.store_min_word);
  w.u32(c.cipher.latency);
  w.u8(c.cipher.alternate ? 1 : 0);
  w.u8(c.cipher.pipelined ? 1 : 0);
  w.u32(c.store_gate_headstart);
  w.u8(c.fault.enabled ? 1 : 0);
  w.u64(c.fault.fetch_index);
  w.u32(static_cast<std::uint32_t>(c.fault.bit));
  w.u64(c.max_cycles);
  w.u8(c.collect_trace ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(c.max_trace));
  w.str(c.scheme);
  return w.take();
}

}  // namespace sofia::sim
