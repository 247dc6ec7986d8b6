// A fixed piece of reference work that calls nothing in Knit, timed between
// the benchmark's activities to measure how fast the shared host runs at the
// moment. Host-time metrics are scaled by it (see NOTES.md): the shared host's
// speed drifts by up to 40% from minute to minute, every host-time metric of a
// run moves with it, and scaling removes the drift but keeps what the code
// costs, since the yardstick's own work never changes.
#ifndef KNITBENCH_YARDSTICK_H_
#define KNITBENCH_YARDSTICK_H_

namespace knitbench {

// The yardstick's time on the baseline host (NOTES.md). A run whose yardstick
// takes this long reports its host times unscaled.
constexpr double kReferenceYardstickMs = 19.0;

// Runs the reference work once and returns its host time in milliseconds:
// bytecode dispatch, small-object allocation churn in an ordered map with
// string keys, and a pointer chase over 8 MB, the kinds of work the VM, the
// compiler and the linker do. The same work on every call and in every build.
double RunYardstickMs();

}  // namespace knitbench

#endif  // KNITBENCH_YARDSTICK_H_
