#include "src/clack/harness.h"

#include "src/clack/corpus.h"
#include "src/support/mangle.h"

namespace knit {

std::map<std::string, std::string> RouterProgram::ClackEntryNames(
    const KnitBuildResult& build) {
  std::map<std::string, std::string> names;
  for (const char* port : {"in0", "in1"}) {
    names[port] = build.ExportedSymbol(port, "pkt_push");
  }
  for (const char* stats : {"statsIn0", "statsIn1", "statsIp", "statsOut", "statsDrop"}) {
    names[stats] = build.ExportedSymbol(stats, "counter_value");
  }
  // Configurations with a heap (e.g. ClackAllocRouter) export their allocator;
  // the serving layer calls this entry between batches to recycle shard arenas.
  std::string alloc_reset = build.ExportedSymbol("alloc", "alloc_reset");
  if (!alloc_reset.empty()) {
    names["allocReset"] = alloc_reset;
  }
  std::string scratch = build.ExportedSymbol("statsScratch", "counter_value");
  if (!scratch.empty()) {
    names["statsScratch"] = scratch;
  }
  return names;
}

Result<RouterProgram> RouterProgram::FromClack(KnitPipeline& pipeline,
                                               const std::string& top_unit, Diagnostics& diags,
                                               const CostModel& cost) {
  return FromKnit(pipeline, ClackKnit(), ClackSources(), top_unit, diags, cost);
}

Result<RouterProgram> RouterProgram::FromKnit(KnitPipeline& pipeline,
                                              const std::string& knit_text,
                                              const SourceMap& sources,
                                              const std::string& top_unit, Diagnostics& diags,
                                              const CostModel& cost) {
  RouterProgram program;
  Result<LinkedImage> built = pipeline.Build(knit_text, sources, top_unit, diags);
  if (!built.ok()) {
    return Result<RouterProgram>::Failure();
  }
  program.build_ = std::make_unique<KnitBuildResult>(
      KnitBuildResultFrom(built.take(), pipeline.metrics()));
  program.machine_ = std::make_unique<Machine>(program.build_->image, cost);
  Result<std::unique_ptr<RouterSession>> session = RouterSession::Open(
      *program.machine_, ClackEntryNames(*program.build_), EnvSymbol("dev", "dev_tx"), diags);
  if (!session.ok()) {
    return Result<RouterProgram>::Failure();
  }
  program.session_ = session.take();
  // Run the generated initializers (Clack has none today, but configurations may
  // grow them).
  RunResult init = program.machine_->Call(program.build_->init_function);
  if (!init.ok) {
    diags.Error(SourceLoc::Unknown(), "knit__init failed: " + init.error);
    return Result<RouterProgram>::Failure();
  }
  return program;
}

Result<RouterProgram> RouterProgram::FromImage(std::unique_ptr<Image> image,
                                               std::map<std::string, std::string> entry_names,
                                               const std::string& dev_native,
                                               Diagnostics& diags, const CostModel& cost) {
  RouterProgram program;
  program.image_ = std::move(image);
  program.machine_ = std::make_unique<Machine>(*program.image_, cost);
  Result<std::unique_ptr<RouterSession>> session =
      RouterSession::Open(*program.machine_, std::move(entry_names), dev_native, diags);
  if (!session.ok()) {
    return Result<RouterProgram>::Failure();
  }
  program.session_ = session.take();
  return program;
}

void RouterProgram::EnableProfiling(size_t max_events) {
  machine_->EnableProfiling(max_events);
}

Result<RouterStats> RouterProgram::RunTrace(const std::vector<TracePacket>& trace,
                                            Diagnostics& diags) {
  session_->ResetStats();

  // Attribute exactly the measured window: init already ran (FromClack), and
  // the counter read-back happens after the profile snapshot (see Snapshot).
  if (machine_->profiling()) {
    machine_->ResetProfile();
  }
  if (!session_->FeedRange(trace, 0, trace.size(), diags).ok()) {
    return Result<RouterStats>::Failure();
  }
  return session_->Snapshot(diags);
}

}  // namespace knit
