// Live reconfiguration: hot-swap one component instance of a RUNNING image.
//
// A build with `knitc --swappable=INSTANCE` (or "*") routes every cross-component
// call into INSTANCE through a binding slot (Image::bindings, Op::kCallBound)
// instead of a baked-in function id. The ReconfigEngine exploits that indirection
// to replace the instance while the Machine keeps its heap, its counters, and
// every other component's state:
//
//   1. quiesce   — wait until no live frame is executing inside the target
//                  instance (requests made mid-flight are queued; Pump() retries
//                  at packet boundaries and counts the deferred packets);
//   2. compile   — CompileInstanceReplacement() builds the new unit against the
//                  SAME import/export contract, its globals renamed with a
//                  generation suffix (__vN) so both generations coexist;
//   3. patch-link— LinkAppend (src/ld, the build's linker) resolves the
//                  imports against the running image, routing calls into other
//                  swappable instances through their binding slots, then
//                  appends the new functions past the existing text; the data
//                  goes on the VM heap. A link error leaves the image untouched;
//   4. init      — run the replacement's initializers on the live machine; a
//                  nonzero status or a trap ABANDONS the new generation with the
//                  binding slots untouched: exact rollback, the old instance
//                  keeps serving ("degraded but running, never a dead router");
//   5. commit    — retarget the instance's binding slots and repoint the
//                  unversioned link symbols, then run the OLD generation's
//                  finalizers (trap-guarded). A function ref to an export names
//                  its slot (kSlotBase), so every ref, wherever running code
//                  stored it, follows the retarget; nothing else is patched.
//
// Fault injection: FaultPlan::swap_points names the swap-path failure points
// ("swap-link", "swap-init", "swap-init-trap", "swap-quiesce"); each must leave
// the machine processing packets with the old instance — the property the
// reconfig tests drive under every injection.
//
// Known cost, by design (documented in DESIGN.md §11): an abandoned or retired
// generation's text is leaked (stubbed ids stay valid, so no caller enumeration
// is ever needed). A ref to a swapped instance's static function has no slot
// and keeps naming the generation that took it. Growing the image renumbers
// nothing: natives live at fixed ids (kNativeBase + n) no function id reaches,
// so the append never writes the running image's code or data, and a native
// ref that running code stored anywhere still names its native after the swap.
//
// A swap costs in proportion to its replacement, not to the image: it writes
// no existing code or data, and the machine resets only the branch predictions
// that were made.
#ifndef SRC_RECONFIG_RECONFIG_H_
#define SRC_RECONFIG_RECONFIG_H_

#include <string>
#include <vector>

#include "src/driver/knitc.h"
#include "src/vm/machine.h"

namespace knit {

// One requested hot-swap: replace `instance` (a configuration path such as
// "ClackRouter/RouteLookup") with freshly compiled `source`.
struct SwapSpec {
  std::string instance;
  std::string source;
  std::string source_name = "<swap>";
};

struct SwapReport {
  bool ok = false;        // the swap committed
  bool deferred = false;  // target busy; queued — Pump() will retry
  std::string error;      // failure detail when !ok && !deferred
  std::vector<std::string> warnings;  // non-fatal (e.g. an old finalizer trapped)
  int version = 0;            // generation number of this attempt (suffix __vN)
  int new_functions = 0;      // functions appended to the image
  int rebound_slots = 0;      // binding slots retargeted at commit
  int deferred_packets = 0;   // packet boundaries the request waited through
  long long pause_cycles = 0; // modeled cycles the machine spent paused (init
                              // plus old-generation finalizers)
};

// Drives swaps against one build + machine pair. The engine mutates
// build.image (appending functions, retargeting binding slots) and the
// machine's memory (replacement data lives on the VM heap); the machine sees
// every mutation immediately because it executes the image by reference.
class ReconfigEngine {
 public:
  // `sources` provides #include resolution for replacement sources, exactly as
  // the original build's SourceMap did.
  ReconfigEngine(KnitBuildResult& build, Machine& machine, SourceMap sources);

  // Executes the swap now if the target instance is quiescent; otherwise queues
  // it and returns deferred=true. Requests for unknown instances or instances
  // without binding slots fail immediately.
  SwapReport Request(const SwapSpec& spec);

  // Retries queued swaps; call at quiescent points (the Clack harness calls it
  // between packets). Returns the number of requests that left the queue
  // (committed or failed — inspect reports()). Each call counts one deferred
  // packet boundary against every request still waiting.
  int Pump();

  bool HasPending() const { return !pending_.empty(); }

  // Every finished (non-deferred) report, in completion order.
  const std::vector<SwapReport>& reports() const { return reports_; }
  const SwapReport& last_report() const { return reports_.back(); }

 private:
  SwapReport Execute(const SwapSpec& spec, int deferred_packets);

  KnitBuildResult& build_;
  Machine& machine_;
  SourceMap sources_;
  int generation_ = 0;

  struct Pending {
    SwapSpec spec;
    int deferred_packets = 0;
  };
  std::vector<Pending> pending_;
  std::vector<SwapReport> reports_;
};

}  // namespace knit

#endif  // SRC_RECONFIG_RECONFIG_H_
