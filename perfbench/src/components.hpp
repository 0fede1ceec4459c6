#ifndef PERFBENCH_COMPONENTS_HPP
#define PERFBENCH_COMPONENTS_HPP

#include <string>
#include <vector>

/**
 * @file
 * Per-call host cost of public simulator layer functions, timed in
 * isolation in the traced run: MemorySystem::request on contended
 * same-line atomics and on strided streaming loads, Cache::access,
 * coalesce, Scheduler::order and one arbitration (pick, or order plus a
 * first-eligible scan where a policy has no pick fast path) for every
 * policy over one scheduler unit's full-occupancy warp set, DDOS
 * HistoryRegisters::insert and SibTable lookup, a divergent SimtStack
 * branch, and assemble.
 */

namespace perfbench {

struct Component {
    /** Metric name, e.g. "sched.order_ns.cawa". */
    std::string name;
    /** Median host nanoseconds per call. */
    double ns = 0.0;
};

std::vector<Component> timeComponents();

}  // namespace perfbench

#endif  // PERFBENCH_COMPONENTS_HPP
