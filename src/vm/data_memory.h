#ifndef SRC_VM_DATA_MEMORY_H_
#define SRC_VM_DATA_MEMORY_H_

#include <cstddef>
#include <cstdint>

namespace knit {

// A machine's data memory: an anonymous private mapping, so the kernel supplies
// each page zero-filled on its first touch and a machine is resident only for
// the pages it uses (the data image it loads, the stack and heap pages it
// reaches) instead of its whole address space. Huge pages are declined
// (MADV_NOHUGEPAGE), so one first touch costs one 4 KB zero page, not a 2 MB
// one. One PROT_NONE guard page follows the last page: a host-side access past
// the end faults at once rather than reading a neighbouring allocation. Move-only;
// the destructor unmaps. Throws std::bad_alloc when the mapping fails.
class DataMemory {
 public:
  explicit DataMemory(uint32_t size);
  ~DataMemory();
  DataMemory(DataMemory&& other) noexcept;
  DataMemory(const DataMemory&) = delete;
  DataMemory& operator=(const DataMemory&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_ = 0;  // bytes mapped: size_ rounded up to pages, plus the guard page
};

}  // namespace knit

#endif  // SRC_VM_DATA_MEMORY_H_
