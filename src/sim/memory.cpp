#include "sim/memory.hpp"

#include <algorithm>

namespace sofia::sim {

std::uint8_t* Memory::allocate_page(std::uint32_t addr) {
  auto& table = dir_[addr >> kDirShift];
  if (!table) table = std::make_unique<Table>();
  auto& page = table->pages[(addr >> kPageBits) & (kTableSize - 1)];
  if (!page) page = std::make_unique<std::uint8_t[]>(kPageSize);  // zeroed
  return page.get();
}

std::uint32_t Memory::load_straddling(std::uint32_t addr, std::size_t size) const {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < size; ++i)
    value |= static_cast<std::uint32_t>(load8(addr + static_cast<std::uint32_t>(i)))
             << (8 * i);
  return value;
}

void Memory::store_straddling(std::uint32_t addr, std::uint32_t value,
                              std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    store8(addr + static_cast<std::uint32_t>(i),
           static_cast<std::uint8_t>(value >> (8 * i)));
}

void Memory::store_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                         std::size_t size) {
  while (size > 0) {
    const std::size_t chunk =
        std::min<std::size_t>(size, kPageSize - (addr & kOffsetMask));
    std::memcpy(page_for_write(addr) + (addr & kOffsetMask), bytes, chunk);
    addr += static_cast<std::uint32_t>(chunk);  // wraps like the byte path
    bytes += chunk;
    size -= chunk;
  }
}

void Memory::load_image(const assembler::LoadImage& image) {
  store_bytes(image.text_base,
              reinterpret_cast<const std::uint8_t*>(image.text.data()),
              image.text.size() * sizeof(std::uint32_t));
  store_bytes(image.data_base, image.data.data(), image.data.size());
}

}  // namespace sofia::sim
