// Fleet-scale serving: N router images — one Machine per shard, all cloned
// from ONE linked image — behind flow-hash sharding, bounded per-shard MPSC
// queues, and batched dispatch, with one thread per shard.
//
// The paper's claim is that component composition is free at the boundary; the
// serving layer stresses that it stays free at fleet scale, where the unit of
// scale is the *image*: Knit images have per-instance VM state and no globals,
// so cloning a router is "construct another Machine over the same Image".
//
// Guarantees (tested in tests/serve_test.cc; knitbench's fleet workload gates
// every serve's tx hash against a single -O0 machine):
//   * per-flow ordering: a flow hashes to exactly one shard, whose queue and
//     session are FIFO — packets of one flow are processed in stream order;
//   * exact aggregation: every RouterStats counter (packets, cycles, stalls,
//     element counters, tx_count) and every ComponentProfile row of the
//     aggregate is the exact sum of the shard values;
//   * hash equivalence: the aggregate tx_hash — per-packet transmission
//     digests folded in trace order (see src/clack/session.h) — is
//     byte-identical to a single-machine RunTrace of the same trace;
//   * graceful drain: the calling thread feeds and then closes the queues,
//     every worker drains what is left and snapshots, and the caller joins the
//     workers and aggregates. A shard failure closes its queue (so the feeder
//     never blocks on a dead consumer), stops the feed, and surfaces the
//     shard's diagnostics.
#ifndef SRC_SERVE_SERVE_H_
#define SRC_SERVE_SERVE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clack/harness.h"
#include "src/serve/latency.h"
#include "src/serve/queue.h"

namespace knit {

struct ServeOptions {
  int shards = 1;

  // Batched dispatch: a worker drains up to `batch` packets from its queue per
  // wake-up and feeds them in one RouterSession::FeedBatch entry — one lock
  // acquisition and one entry-symbol resolution amortized over the batch.
  int batch = 32;

  // Attribute cycles/stalls to components on every shard; the aggregate
  // profile is the exact per-component sum across shards.
  bool profile = false;

  // Per-shard VM instruction budget; 0 keeps the CostModel default. Long
  // serving runs (millions of packets on few shards) need more fuel than the
  // default 2e9.
  long long fuel = 0;

  // Call the configuration's allocator-reset export (entry map key
  // "allocReset", exported by e.g. ClackAllocRouter) on a shard after each
  // drained batch. Every cloned machine owns a private Alloc instance, so a
  // reset recycles that shard's arena without touching its neighbours — and
  // since the elements forward packets unchanged whether malloc succeeds or
  // not, resets never change the tx hash. Ignored when the configuration
  // exports no allocator.
  bool reset_alloc_per_batch = false;

  CostModel cost;
};

struct ShardReport {
  int shard = 0;
  RouterStats stats;          // this shard's exact measurement
  long long batches = 0;      // queue wake-ups
  long long max_batch = 0;    // largest batch actually drained
  size_t max_queue_depth = 0; // high-water mark of the shard's queue
};

struct ServeReport {
  // Exact sums of the shard stats; tx_hash is the trace-order fold across
  // shards (byte-identical to the single-machine hash); profile rows are
  // per-component sums when ServeOptions::profile was set.
  RouterStats total;
  std::vector<ShardReport> shards;

  // Per-packet latency under the cycle model (cycles from graph entry to
  // exit), merged across shards.
  LatencyHistogram latency;
  long long p50_cycles = 0;
  long long p99_cycles = 0;

  double wall_seconds = 0;        // host wall time of the serve run
  double packets_per_second = 0;  // host throughput (packets / wall_seconds)
};

class RouterFleet {
 public:
  // Clones `build` into `options.shards` machines (sessions opened, knit__init
  // run per shard). `entry_names`/`dev_native` follow the RouterSession::Open
  // contract.
  static Result<std::unique_ptr<RouterFleet>> FromBuild(
      std::shared_ptr<const KnitBuildResult> build,
      std::map<std::string, std::string> entry_names, const std::string& dev_native,
      const ServeOptions& options, Diagnostics& diags);

  // Flow identity hash: IPv4 packets hash (src, dst, protocol); everything
  // else hashes the Ethernet header and the input port. Deterministic, so a
  // flow lands on the same shard for the lifetime of the fleet.
  static uint32_t FlowHash(const TracePacket& packet);
  int ShardOf(const TracePacket& packet) const;

  int shards() const { return static_cast<int>(shards_.size()); }

  // Serves the whole trace: starts one worker thread per shard, feeds every
  // packet to its flow's shard on the calling thread, closes the queues, joins
  // the workers, and aggregates. One-shot — the sessions close on drain.
  Result<ServeReport> Serve(const std::vector<TracePacket>& trace, Diagnostics& diags);

 private:
  struct Shard {
    int index = 0;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<RouterSession> session;
    std::unique_ptr<PacketQueue> queue;
    LatencyHistogram latency;
    ShardReport report;
    Diagnostics diags;   // merged into the caller's on failure
    bool failed = false;
  };

  RouterFleet() = default;

  void WorkerLoop(Shard& shard);
  void FeedLoop(const std::vector<TracePacket>& trace);
  void Aggregate();

  std::shared_ptr<const KnitBuildResult> build_;
  ServeOptions options_;
  std::string alloc_reset_symbol_;  // "" when the config exports no allocator
  std::vector<std::unique_ptr<Shard>> shards_;
  ServeReport report_;
  bool served_ = false;
  std::atomic<bool> stop_{false};
};

}  // namespace knit

#endif  // SRC_SERVE_SERVE_H_
