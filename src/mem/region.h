// Regions: the unit of shared-memory layout (paper §3.1, Figure 1).
//
// The application's address space is partitioned into large, fixed-alignment regions. Data in
// a region is either shared by all processors or private. A shared region is divided into
// software cache lines, each with one dirtybit (timestamp) per processor.
//
// The paper places a code template at the base of each region; an instrumented store masks
// the low-order address bits to find the template, which knows the line size and dirtybit
// location for that region. We reproduce the same structure with data: the first page of
// every region holds a RegionHeader carrying the line shift and the dirtybit slot pointer, so
// the store fast path is:
//
//     header = (RegionHeader*)((uintptr_t)ptr & ~(kRegionAlignment - 1));   // mask
//     header->dirty_slots[(ptr - header->data_base) >> header->line_shift] = sentinel;
//
// which mirrors the MIPS sequences of Appendix A (mask, jump to template, index, store).
#ifndef MIDWAY_SRC_MEM_REGION_H_
#define MIDWAY_SRC_MEM_REGION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/align.h"
#include "src/mem/dirtybit_table.h"
#include "src/mem/global_addr.h"

namespace midway {

// Every region's base address is aligned to this, so a raw pointer's region header is found
// by masking. 64 MiB: virtual address space is reserved lazily, so the cost is VA only.
inline constexpr size_t kRegionAlignment = size_t{1} << 26;

// The first page of a region. Mirrors the paper's per-region dirtybit-update template: it
// carries, as "constants", everything the store fast path needs.
struct RegionHeader {
  static constexpr uint32_t kMagic = 0x4D494457;  // "MIDW"

  uint32_t magic = 0;
  RegionId region_id = 0;
  uint32_t line_shift = 0;
  uint32_t shared = 0;                            // 0 => private: fast path returns (no-op)
  uint64_t data_size = 0;                         // usable bytes (EC checker line clamping)
  std::byte* data_base = nullptr;                 // first data byte (base + header page)
  std::atomic<uint64_t>* dirty_slots = nullptr;   // nullptr for private regions
  std::atomic<uint64_t>* dirty_summary = nullptr;  // 1 bit/line summary (see DirtybitTable)

  // Slots used by specific detection strategies (set when the strategy attaches):
  void* page_table = nullptr;                     // VM strategies: the region's PageTable
  uint32_t page_shift = 0;                        // VM strategies: log2(coherency page size)
};

class Region {
 public:
  // data_size: usable bytes. line_size: software cache line (power of two). A private region
  // gets a no-op header (writes are counted but not tracked). mmap_dirtybits allocates the
  // dirtybit slots in page-aligned protectable storage (for the hybrid strategy).
  Region(RegionId id, size_t data_size, uint32_t line_size, bool shared,
         bool mmap_dirtybits = false);
  ~Region();

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  RegionId id() const { return id_; }
  bool shared() const { return shared_; }
  size_t size() const { return data_size_; }
  uint32_t line_size() const { return 1u << line_shift_; }
  uint32_t line_shift() const { return line_shift_; }
  size_t num_lines() const { return CeilDiv(data_size_, line_size()); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

  RegionHeader* header() { return header_; }

  // Dirtybit table (RT strategies). Null for private regions.
  DirtybitTable* dirtybits() { return dirtybits_.get(); }

  // The masking fast path: region header for any pointer into a region's data.
  static RegionHeader* HeaderFor(const void* ptr) {
    auto base = reinterpret_cast<uintptr_t>(ptr) & ~(kRegionAlignment - 1);
    return reinterpret_cast<RegionHeader*>(base);
  }

  // --- Page protection (VM strategies) -------------------------------------------------
  // Protection covers [page * page_size, ...) of the data area. page_size must be a
  // multiple of the OS page size. These call mprotect(2) on the live mapping, so a real
  // store to a read-only page raises SIGSEGV.
  void ProtectDataRange(size_t offset, size_t length, bool writable);
  void ProtectAllData(bool writable);

 private:
  RegionId id_;
  size_t data_size_;
  uint32_t line_shift_;
  bool shared_;

  void* raw_map_ = nullptr;  // mmap'd reservation (2 * kRegionAlignment)
  size_t raw_size_ = 0;
  RegionHeader* header_ = nullptr;  // == aligned base
  std::byte* data_ = nullptr;       // base + one OS page

  std::unique_ptr<DirtybitTable> dirtybits_;
};

}  // namespace midway

#endif  // MIDWAY_SRC_MEM_REGION_H_
