#include "src/serve/queue.h"

namespace knit {

bool PacketQueue::Push(PacketRef item) {
  std::unique_lock<std::mutex> lock(mu_);
  can_push_.wait(lock, [this] {
    return closed_ || items_.size() < capacity_;
  });
  if (closed_) {
    return false;
  }
  items_.push_back(item);
  if (items_.size() > max_depth_) {
    max_depth_ = items_.size();
  }
  lock.unlock();
  can_pop_.notify_one();
  return true;
}

size_t PacketQueue::PopBatch(std::vector<PacketRef>& out, size_t max) {
  out.clear();
  std::unique_lock<std::mutex> lock(mu_);
  can_pop_.wait(lock, [this] { return closed_ || !items_.empty(); });
  size_t n = 0;
  while (n < max && !items_.empty()) {
    out.push_back(items_.front());
    items_.pop_front();
    ++n;
  }
  lock.unlock();
  if (n > 0) {
    // Popping may have made room for several blocked producers.
    can_push_.notify_all();
  }
  return n;
}

void PacketQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  can_push_.notify_all();
  can_pop_.notify_all();
}

size_t PacketQueue::max_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_depth_;
}

}  // namespace knit
