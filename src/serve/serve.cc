#include "src/serve/serve.h"

#include <algorithm>
#include <chrono>
#include <system_error>
#include <thread>

namespace knit {

namespace {

// Per-shard queue bound (backpressure toward the feeder).
constexpr size_t kQueueCapacity = 1024;

// Exact per-component sum of shard profiles: every counter of the aggregate is
// the sum of the shard rows for that component / edge — attribution never
// loses a cycle across shards, same as it never loses one within a shard.
ComponentProfile MergeProfiles(const std::vector<const ComponentProfile*>& parts) {
  ComponentProfile merged;
  std::map<std::string, ComponentProfileEntry> components;
  std::map<std::pair<std::string, std::string>, long long> edges;
  for (const ComponentProfile* part : parts) {
    for (const ComponentProfileEntry& entry : part->components) {
      ComponentProfileEntry& slot = components[entry.component];
      slot.component = entry.component;
      slot.cycles += entry.cycles;
      slot.ifetch_stalls += entry.ifetch_stalls;
      slot.insns += entry.insns;
      slot.calls_in += entry.calls_in;
      slot.calls_out += entry.calls_out;
      slot.bytes_alloc += entry.bytes_alloc;
      slot.bytes_freed += entry.bytes_freed;
      // Shards have disjoint heaps, so their peaks need not coincide in time:
      // the fleet-level peak is the max shard peak, not a sum.
      slot.live_peak = std::max(slot.live_peak, entry.live_peak);
    }
    for (const BoundaryEdge& edge : part->edges) {
      edges[{edge.caller, edge.callee}] += edge.calls;
    }
    merged.total_cycles += part->total_cycles;
    merged.total_ifetch_stalls += part->total_ifetch_stalls;
    merged.total_insns += part->total_insns;
    merged.total_bytes_alloc += part->total_bytes_alloc;
    merged.total_bytes_freed += part->total_bytes_freed;
    merged.events_truncated = merged.events_truncated || part->events_truncated;
  }
  for (auto& [name, entry] : components) {
    merged.components.push_back(entry);
  }
  std::sort(merged.components.begin(), merged.components.end(),
            [](const ComponentProfileEntry& a, const ComponentProfileEntry& b) {
              if (a.cycles != b.cycles) {
                return a.cycles > b.cycles;
              }
              return a.component < b.component;
            });
  for (const auto& [pair, calls] : edges) {
    merged.edges.push_back(BoundaryEdge{pair.first, pair.second, calls});
    if (pair.first != pair.second) {
      merged.boundary_calls += calls;
    }
  }
  std::sort(merged.edges.begin(), merged.edges.end(),
            [](const BoundaryEdge& a, const BoundaryEdge& b) {
              if (a.calls != b.calls) {
                return a.calls > b.calls;
              }
              if (a.caller != b.caller) {
                return a.caller < b.caller;
              }
              return a.callee < b.callee;
            });
  return merged;
}

}  // namespace

uint32_t RouterFleet::FlowHash(const TracePacket& packet) {
  uint32_t hash = 2166136261u;
  auto mix = [&hash](uint8_t byte) { hash = (hash ^ byte) * 16777619u; };
  const std::vector<uint8_t>& f = packet.frame;
  if (f.size() >= 34 && f[12] == 0x08 && f[13] == 0x00) {
    // IPv4: the flow identity is (src address, dst address, protocol), so both
    // directions of unrelated flows spread while one flow stays put.
    for (int i = 26; i < 34; ++i) {
      mix(f[i]);
    }
    mix(f[23]);
  } else {
    // Non-IP (ARP, foreign ethertypes): hash the Ethernet header + input port.
    for (size_t i = 0; i < f.size() && i < 14; ++i) {
      mix(f[i]);
    }
    mix(static_cast<uint8_t>(packet.in_port));
  }
  return hash;
}

int RouterFleet::ShardOf(const TracePacket& packet) const {
  return static_cast<int>(FlowHash(packet) % static_cast<uint32_t>(shards_.size()));
}

Result<std::unique_ptr<RouterFleet>> RouterFleet::FromBuild(
    std::shared_ptr<const KnitBuildResult> build,
    std::map<std::string, std::string> entry_names, const std::string& dev_native,
    const ServeOptions& options, Diagnostics& diags) {
  if (options.shards < 1) {
    diags.Error(SourceLoc::Unknown(), "serve: shards must be >= 1");
    return Result<std::unique_ptr<RouterFleet>>::Failure();
  }
  if (options.batch < 1) {
    diags.Error(SourceLoc::Unknown(), "serve: batch must be >= 1");
    return Result<std::unique_ptr<RouterFleet>>::Failure();
  }
  auto fleet = std::unique_ptr<RouterFleet>(new RouterFleet());
  fleet->build_ = std::move(build);
  fleet->options_ = options;
  if (options.reset_alloc_per_batch) {
    auto reset = entry_names.find("allocReset");
    if (reset != entry_names.end()) {
      fleet->alloc_reset_symbol_ = reset->second;
    }
  }
  for (int i = 0; i < options.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->report.shard = i;
    shard->queue = std::make_unique<PacketQueue>(kQueueCapacity);
    // The whole point of the fleet: one immutable linked image, N machines.
    shard->machine = std::make_unique<Machine>(fleet->build_->image, options.cost);
    if (options.fuel > 0) {
      shard->machine->set_max_insns(options.fuel);
    }
    if (options.profile) {
      shard->machine->EnableProfiling();
    }
    Result<std::unique_ptr<RouterSession>> session =
        RouterSession::Open(*shard->machine, entry_names, dev_native, diags);
    if (!session.ok()) {
      return Result<std::unique_ptr<RouterFleet>>::Failure();
    }
    shard->session = session.take();
    RunResult init = shard->machine->Call(fleet->build_->init_function);
    if (!init.ok) {
      diags.Error(SourceLoc::Unknown(),
                  "serve: knit__init failed on shard " + std::to_string(i) + ": " + init.error);
      return Result<std::unique_ptr<RouterFleet>>::Failure();
    }
    if (options.profile) {
      // Attribute the serving window only, not image initialization.
      shard->machine->ResetProfile();
    }
    shard->session->set_collect_tx_records(true);
    Shard* raw = shard.get();
    shard->session->SetPacketObserver(
        [raw](uint64_t, long long packet_cycles) { raw->latency.Record(packet_cycles); });
    fleet->shards_.push_back(std::move(shard));
  }
  return fleet;
}

void RouterFleet::FeedLoop(const std::vector<TracePacket>& trace) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    // Push returns false only for a closed (failed) shard queue; the packet is
    // dropped and stop_ ends the feed on the next iteration.
    shards_[static_cast<size_t>(ShardOf(trace[i]))]->queue->Push(
        PacketRef{&trace[i], static_cast<uint64_t>(i)});
  }
  // Drain protocol, step 1: no more input. Workers finish what is queued.
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->queue->Close();
  }
}

void RouterFleet::WorkerLoop(Shard& shard) {
  std::vector<PacketRef> batch;
  std::vector<const TracePacket*> packets(static_cast<size_t>(options_.batch));
  std::vector<uint64_t> seqs(static_cast<size_t>(options_.batch));
  for (;;) {
    size_t n = shard.queue->PopBatch(batch, static_cast<size_t>(options_.batch));
    if (n == 0) {
      break;  // closed and fully drained
    }
    shard.report.batches++;
    shard.report.max_batch = std::max(shard.report.max_batch, static_cast<long long>(n));
    for (size_t i = 0; i < n; ++i) {
      packets[i] = batch[i].packet;
      seqs[i] = batch[i].seq;
    }
    if (!shard.session->FeedBatch(packets.data(), seqs.data(), n, shard.diags).ok()) {
      shard.failed = true;
      // Failure drain: stop the feed and close our queue so no producer can
      // block forever on a consumer that stopped popping.
      stop_.store(true, std::memory_order_relaxed);
      shard.queue->Close();
      break;
    }
    // Batch boundary is a quiescent point for this shard (no router frame
    // live), so recycling its private arena here is race-free by construction.
    if (!alloc_reset_symbol_.empty()) {
      RunResult reset = shard.machine->Call(alloc_reset_symbol_);
      if (!reset.ok) {
        shard.diags.Error(SourceLoc::Unknown(),
                          "serve: alloc_reset failed on shard " +
                              std::to_string(shard.index) + ": " + reset.error);
        shard.failed = true;
        stop_.store(true, std::memory_order_relaxed);
        shard.queue->Close();
        break;
      }
    }
  }
  shard.report.max_queue_depth = shard.queue->max_depth();
  // Drain protocol, step 2: final snapshot; the session refuses packets after.
  Result<RouterStats> final_stats = shard.session->Close(shard.diags);
  if (final_stats.ok()) {
    shard.report.stats = final_stats.take();
  } else {
    shard.failed = true;
  }
}

void RouterFleet::Aggregate() {
  RouterStats total;
  // The image (and so its text) is shared by construction; don't sum it.
  total.text_bytes = shards_[0]->report.stats.text_bytes;
  for (std::unique_ptr<Shard>& shard : shards_) {
    const RouterStats& s = shard->report.stats;
    total.packets += s.packets;
    total.cycles += s.cycles;
    total.ifetch_stalls += s.ifetch_stalls;
    total.in0 += s.in0;
    total.in1 += s.in1;
    total.ip += s.ip;
    total.out += s.out;
    total.drop += s.drop;
    total.tx_count += s.tx_count;
    report_.latency.Merge(shard->latency);
    report_.shards.push_back(shard->report);
  }
  // Trace-order fold of the per-packet digests: a k-way merge by seq across the
  // shards' (already seq-sorted) transmission logs reproduces the exact fold
  // order of a single machine running the whole trace.
  std::vector<size_t> cursor(shards_.size(), 0);
  uint64_t hash = 0;
  for (;;) {
    int best = -1;
    uint64_t best_seq = 0;
    for (size_t k = 0; k < shards_.size(); ++k) {
      const std::vector<TxRecord>& records = shards_[k]->session->tx_records();
      if (cursor[k] < records.size() &&
          (best < 0 || records[cursor[k]].seq < best_seq)) {
        best = static_cast<int>(k);
        best_seq = records[cursor[k]].seq;
      }
    }
    if (best < 0) {
      break;
    }
    hash = FoldTxDigest(hash, shards_[static_cast<size_t>(best)]
                                  ->session->tx_records()[cursor[static_cast<size_t>(best)]]
                                  .digest);
    cursor[static_cast<size_t>(best)]++;
  }
  total.tx_hash = hash;
  if (options_.profile) {
    std::vector<const ComponentProfile*> parts;
    for (std::unique_ptr<Shard>& shard : shards_) {
      parts.push_back(&shard->report.stats.profile);
    }
    total.profile = MergeProfiles(parts);
  }
  report_.total = total;
  report_.p50_cycles = report_.latency.Percentile(0.50);
  report_.p99_cycles = report_.latency.Percentile(0.99);
}

Result<ServeReport> RouterFleet::Serve(const std::vector<TracePacket>& trace,
                                       Diagnostics& diags) {
  if (served_) {
    diags.Error(SourceLoc::Unknown(), "serve: fleet already served (sessions are closed)");
    return Result<ServeReport>::Failure();
  }
  served_ = true;

  // One thread per shard, and the caller feeds. A feeder blocked on a full
  // queue waits for that queue's worker, so every worker needs a thread of its
  // own; a pool that may run tasks one after another could deadlock here.
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  try {
    for (std::unique_ptr<Shard>& shard : shards_) {
      workers.emplace_back([this, raw = shard.get()] { WorkerLoop(*raw); });
    }
  } catch (const std::system_error& error) {
    // Out of threads: feed nothing, so the workers already started see closed,
    // empty queues and return, and every started thread is joined below.
    diags.Error(SourceLoc::Unknown(),
                std::string("serve: cannot start a shard thread: ") + error.what());
    stop_.store(true, std::memory_order_relaxed);
  }
  FeedLoop(trace);
  // Drain protocol, step 3: once every worker has closed its session, the
  // caller aggregates.
  for (std::thread& worker : workers) {
    worker.join();
  }

  bool failed = workers.size() < shards_.size();
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->failed) {
      failed = true;
    }
    diags.Append(shard->diags);  // shards report privately (Diagnostics is not thread-safe)
  }
  if (failed) {
    return Result<ServeReport>::Failure();
  }
  Aggregate();
  auto end = std::chrono::steady_clock::now();

  report_.wall_seconds = std::chrono::duration<double>(end - start).count();
  report_.packets_per_second =
      report_.wall_seconds > 0 ? double(report_.total.packets) / report_.wall_seconds : 0;
  return report_;
}

}  // namespace knit
