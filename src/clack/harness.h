// RouterProgram: loads a router image (a Knit-built Clack configuration, or any
// image exposing the same entry points, e.g. the object-style Click emulation),
// binds the device environment, and measures a packet trace exactly the way the
// paper does: "measured in number of cycles from the moment a packet enters the
// router graph to the moment it leaves".
//
// The packet path itself lives in RouterSession (src/clack/session.h): a
// program owns one machine and one session over it (session()), and RunTrace
// is the whole-trace convenience over that session. Hosts that shard one image
// across many machines use src/serve.
#ifndef SRC_CLACK_HARNESS_H_
#define SRC_CLACK_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clack/session.h"
#include "src/clack/trace.h"
#include "src/driver/knitc.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"
#include "src/vm/machine.h"

namespace knit {

class RouterProgram {
 public:
  // THE factory: builds a Clack router (a top unit from ClackKnit()) on a
  // caller-owned staged pipeline. The caller's KnitcOptions (jobs, cache, opt
  // level) apply, the artifact cache persists across calls (building four
  // router variants shares every unchanged unit object), and the caller can
  // read pipeline.metrics() afterwards. `cost` lets experiments scale the
  // simulated machine (e.g. the L1I size, to preserve the paper's text:cache
  // ratio).
  static Result<RouterProgram> FromClack(KnitPipeline& pipeline, const std::string& top_unit,
                                         Diagnostics& diags,
                                         const CostModel& cost = CostModel());

  // Like FromClack, but over caller-provided knit text and sources — the entry
  // point for configurations derived from the corpus, e.g. RewriteAllocProvider
  // output (`knitc run --alloc=NAME`) or bench-generated variants.
  static Result<RouterProgram> FromKnit(KnitPipeline& pipeline, const std::string& knit_text,
                                        const SourceMap& sources, const std::string& top_unit,
                                        Diagnostics& diags, const CostModel& cost = CostModel());

  // Wraps an already-linked image. `entry_names` maps the harness's logical names
  // (in0, in1, statsIn0, statsIn1, statsIp, statsOut, statsDrop) to image symbols;
  // the image must import the native named by `dev_native`.
  static Result<RouterProgram> FromImage(std::unique_ptr<Image> image,
                                         std::map<std::string, std::string> entry_names,
                                         const std::string& dev_native, Diagnostics& diags,
                                         const CostModel& cost = CostModel());

  // The harness's logical-entry map for a Knit-built Clack router — shared
  // with the serving layer, which opens sessions on shard machines over the
  // same build.
  static std::map<std::string, std::string> ClackEntryNames(const KnitBuildResult& build);

  // Runs the trace; each packet is written into VM memory and pushed through the
  // matching input port, with cycle/stall deltas accumulated per packet. Resets
  // the session's stats (and the profile window) first, then feeds the whole
  // trace: session().FeedRange without the reset.
  Result<RouterStats> RunTrace(const std::vector<TracePacket>& trace, Diagnostics& diags);

  // Turns on the machine's component profiler; subsequent RunTrace calls fill
  // RouterStats::profile with the measured window's attribution.
  void EnableProfiling(size_t max_events = 1 << 20);

  // The session-style run API over this program's machine (open already
  // happened; the program closes it on destruction).
  RouterSession& session() { return *session_; }

  Machine& machine() { return *machine_; }
  const KnitBuildResult* build() const { return build_.get(); }
  // Mutable access for the reconfig engine, which rewrites the build's image
  // (binding slots, appended functions) while the machine runs it.
  KnitBuildResult* mutable_build() { return build_.get(); }

 private:
  RouterProgram() = default;

  std::unique_ptr<KnitBuildResult> build_;  // null for FromImage
  std::unique_ptr<Image> image_;            // null for FromClack (owned by build_)
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<RouterSession> session_;
};

}  // namespace knit

#endif  // SRC_CLACK_HARNESS_H_
