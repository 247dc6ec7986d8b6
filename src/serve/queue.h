// Bounded MPSC packet queue: the hand-off between the stream feeder(s) and one
// shard worker. Push blocks while the queue is full (backpressure toward the
// producer), PopBatch blocks while it is empty and drains up to a whole batch
// in one lock acquisition — the K in the serving layer's batched dispatch.
// Close() is the drain protocol: producers stop, consumers finish whatever is
// left, then PopBatch returns 0.
#ifndef SRC_SERVE_QUEUE_H_
#define SRC_SERVE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace knit {

struct TracePacket;  // src/clack/trace.h

// One enqueued packet: a borrowed pointer into the caller's trace plus the
// packet's stream sequence number (its index in that trace).
struct PacketRef {
  const TracePacket* packet = nullptr;
  uint64_t seq = 0;
};

class PacketQueue {
 public:
  // `capacity` >= 1: Push blocks while the queue holds that many items.
  explicit PacketQueue(size_t capacity) : capacity_(capacity) {}

  // Blocks while full. Returns false (and drops the packet) iff the queue was
  // closed — a shard that failed mid-drain closes its queue so producers
  // cannot block on a consumer that will never pop again.
  bool Push(PacketRef item);

  // Appends up to `max` items to `out` (cleared first). Blocks while the queue
  // is empty and open; returns 0 only when the queue is closed AND empty —
  // the worker's signal to run its drain epilogue.
  size_t PopBatch(std::vector<PacketRef>& out, size_t max);

  // Idempotent. Wakes every blocked producer and consumer.
  void Close();

  // High-water mark of the queue depth (reporting).
  size_t max_depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<PacketRef> items_;
  size_t capacity_;
  size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace knit

#endif  // SRC_SERVE_QUEUE_H_
