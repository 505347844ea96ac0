// Page table + twin storage for VM-DSM write trapping (paper §3.3).
//
// Shared pages start clean (write-protected under the sigsegv backend). The first store to a
// page faults: the fault handler saves a copy of the page (its "twin"), marks the page dirty,
// and grants write access. Subsequent stores proceed at full speed. At write collection the
// page is diffed against its twin (see diff.h / VmStrategy).
#ifndef MIDWAY_SRC_MEM_PAGE_TABLE_H_
#define MIDWAY_SRC_MEM_PAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mem/region.h"

namespace midway {

class PageTable {
 public:
  // page_size: power of two; under the sigsegv backend it must be a multiple of the OS page
  // size. preallocate_twins: allocate the whole twin arena up front so the SIGSEGV handler
  // never allocates (required for the sigsegv backend).
  PageTable(Region* region, uint32_t page_size, bool preallocate_twins);

  Region* region() { return region_; }
  uint32_t page_size() const { return page_size_; }
  size_t num_pages() const { return entries_.size(); }

  size_t PageOf(uint32_t offset) const { return offset >> page_shift_; }
  uint32_t PageBegin(size_t page) const { return static_cast<uint32_t>(page << page_shift_); }
  // Bytes of region data actually on this page (the last page may be partial).
  uint32_t PageBytes(size_t page) const;

  // A page reads as dirty only once its twin is complete. A page that is still being twinned
  // (kFaulting) reads as clean: its faulting store has not happened yet, so it holds nothing
  // to collect, and the comm thread must not diff against a twin that is not there yet.
  bool IsDirty(size_t page) const {
    return entries_[page].state.load(std::memory_order_acquire) == kDirty;
  }

  // The write-fault path: twin the page and mark it dirty. Returns true if this call
  // performed the transition (false if the page was already dirty). Does NOT touch page
  // protection — the caller owns that (soft backend: nothing; sigsegv backend: mprotect).
  // Safe to call from a signal handler when twins are preallocated. Runs on the application
  // thread without the runtime's lock, so the page passes through kFaulting and is published
  // as kDirty (release) only after the twin copy.
  bool FaultIn(size_t page);

  std::byte* PageData(size_t page) { return region_->data() + PageBegin(page); }
  const std::byte* Twin(size_t page) const;
  std::byte* MutableTwin(size_t page);

  // Returns the page to the clean state and releases its twin (non-preallocated mode).
  void MarkClean(size_t page);

  // Cumulative count of FaultIn transitions (the "write faults" row of Table 2).
  uint64_t fault_count() const { return fault_count_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kClean = 0;
  static constexpr uint32_t kDirty = 1;
  static constexpr uint32_t kFaulting = 2;  // twin being allocated and copied

  struct Entry {
    std::atomic<uint32_t> state{kClean};
    std::unique_ptr<std::byte[]> twin;  // unused when twins are preallocated
  };

  Region* region_;
  uint32_t page_size_;
  uint32_t page_shift_;
  bool preallocated_;
  std::unique_ptr<std::byte[]> twin_arena_;  // preallocated mode: num_pages * page_size
  std::vector<Entry> entries_;
  std::atomic<uint64_t> fault_count_{0};
};

}  // namespace midway

#endif  // MIDWAY_SRC_MEM_PAGE_TABLE_H_
