// Flat, sparse, little-endian physical memory (4 KiB pages allocated on
// first touch). Pure storage: MMIO is decoded by the core, not here.
//
// Lookup: a two-level page table. The top 10 address bits index a
// directory held inline in the object; each directory slot points to a
// table of 1024 page pointers covering 4 MiB; the low 12 bits index the
// page. An access that stays inside one page (every aligned load or
// store, and most unaligned ones) is one directory + table walk and one
// memcpy. Only an access that straddles a page boundary takes the byte
// path, which composes it byte by byte with 32-bit wrap-around, so
// load32(0xFFFFFFFE) reads bytes 0xFFFFFFFE, 0xFFFFFFFF, 0 and 1.
//
// RSS: the directory costs 8 KiB per Memory, each table 8 KiB once any
// page of its 4 MiB region is written, and each page 4 KiB once it is
// written. Reads never allocate: an untouched page reads as zero. The
// default layout (text at 0, data at 1 MiB, stack below 2 MiB) lives in one
// region, so a run pays 16 KiB of tables on top of its pages, where a flat
// page map would reserve 8 MiB of pointers (or 4 GiB of bytes) per run.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "assembler/image.hpp"

namespace sofia::sim {

class Memory {
 public:
  std::uint8_t load8(std::uint32_t addr) const {
    const std::uint8_t* page = page_for_read(addr);
    return page ? page[addr & kOffsetMask] : 0;
  }
  std::uint16_t load16(std::uint32_t addr) const { return load<std::uint16_t>(addr); }
  std::uint32_t load32(std::uint32_t addr) const { return load<std::uint32_t>(addr); }

  void store8(std::uint32_t addr, std::uint8_t value) {
    page_for_write(addr)[addr & kOffsetMask] = value;
  }
  void store16(std::uint32_t addr, std::uint16_t value) { store(addr, value); }
  void store32(std::uint32_t addr, std::uint32_t value) { store(addr, value); }

  /// Copy an image's text and data sections into memory, page by page
  /// (data after text, so data wins where the two overlap).
  void load_image(const assembler::LoadImage& image);

 private:
  // The in-page fast paths memcpy host integers to and from the bytes.
  static_assert(std::endian::native == std::endian::little,
                "sim::Memory assumes a little-endian host");

  static constexpr std::uint32_t kPageBits = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  static constexpr std::uint32_t kOffsetMask = kPageSize - 1;
  static constexpr std::uint32_t kTableBits = 10;
  static constexpr std::uint32_t kTableSize = 1u << kTableBits;
  static constexpr std::uint32_t kDirShift = kPageBits + kTableBits;
  static constexpr std::uint32_t kDirSize = 1u << (32 - kDirShift);

  struct Table {
    std::array<std::unique_ptr<std::uint8_t[]>, kTableSize> pages;
  };

  const std::uint8_t* page_for_read(std::uint32_t addr) const {
    const Table* table = dir_[addr >> kDirShift].get();
    return table ? table->pages[(addr >> kPageBits) & (kTableSize - 1)].get()
                 : nullptr;
  }

  std::uint8_t* page_for_write(std::uint32_t addr) {
    if (const Table* table = dir_[addr >> kDirShift].get())
      if (std::uint8_t* page = table->pages[(addr >> kPageBits) & (kTableSize - 1)].get())
        return page;
    return allocate_page(addr);
  }

  template <typename T>
  T load(std::uint32_t addr) const {
    if ((addr & kOffsetMask) > kPageSize - sizeof(T)) [[unlikely]]
      return static_cast<T>(load_straddling(addr, sizeof(T)));
    T value = 0;
    if (const std::uint8_t* page = page_for_read(addr))
      std::memcpy(&value, page + (addr & kOffsetMask), sizeof(T));
    return value;
  }

  template <typename T>
  void store(std::uint32_t addr, T value) {
    if ((addr & kOffsetMask) > kPageSize - sizeof(T)) [[unlikely]] {
      store_straddling(addr, value, sizeof(T));
      return;
    }
    std::memcpy(page_for_write(addr) + (addr & kOffsetMask), &value, sizeof(T));
  }

  std::uint8_t* allocate_page(std::uint32_t addr);
  std::uint32_t load_straddling(std::uint32_t addr, std::size_t size) const;
  void store_straddling(std::uint32_t addr, std::uint32_t value, std::size_t size);
  void store_bytes(std::uint32_t addr, const std::uint8_t* bytes, std::size_t size);

  std::array<std::unique_ptr<Table>, kDirSize> dir_;
};

}  // namespace sofia::sim
