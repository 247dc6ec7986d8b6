#include "src/vm/data_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace knit {

DataMemory::DataMemory(uint32_t size) : size_(size) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t usable = (size_ + page - 1) / page * page;
  mapped_ = usable + page;
  void* base = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(base);
  // Advisory: a kernel without transparent huge pages rejects it, harmlessly.
  madvise(data_, usable, MADV_NOHUGEPAGE);
  if (mprotect(data_ + usable, page, PROT_NONE) != 0) {
    munmap(base, mapped_);
    throw std::bad_alloc();
  }
}

DataMemory::~DataMemory() {
  if (data_ != nullptr) {
    munmap(data_, mapped_);
  }
}

DataMemory::DataMemory(DataMemory&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

}  // namespace knit
