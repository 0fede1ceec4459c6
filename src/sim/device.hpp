#ifndef BOWSIM_SIM_DEVICE_HPP
#define BOWSIM_SIM_DEVICE_HPP

#include <cstdint>

#include "src/mem/l2_bank.hpp"
#include "src/sim/sm_core.hpp"

/**
 * @file
 * One GPU device of a multi-device system (docs/PERF.md, "Device
 * sharding"): the device-local memory system (L2 banks, DRAM,
 * crossbars), the launch-shared state its SMs mutate (CTA dispatch
 * window, stat aggregate, tracer), and the cycle loop's accounting for
 * SMs that retired from the active list. GpuSystem::launch builds one
 * Device per GpuConfig::numDevices in both execution modes; functional
 * launches leave the memory system idle. Cycle mode keeps the SM cores
 * themselves in a flat device-major vector, so the single-device layout
 * is exactly the pre-split one.
 */

namespace bowsim {

struct Device {
    Device(unsigned id_, const GpuConfig &cfg) : id(id_), memsys(cfg) {}

    unsigned id = 0;
    /** Device-local L2/DRAM (idle in functional mode); wired to peers
     *  via MemorySystem::setSystem on multi-device cycle launches. */
    MemorySystem memsys;
    /** State shared by this device's SMs (dispatch cursor, stats, ...). */
    LaunchState launch;
    /** Last cycle on which any of this device's SMs issued. */
    Cycle lastIssue = 0;
    /** SMs retired from the active list; their per-cycle delay-limit
     *  and smCycles accounting is applied by accountIdleCores(). */
    std::uint64_t idleCores = 0;
    /** Sum of retired SMs' (from then on constant) back-off limits. */
    std::uint64_t idleDelaySum = 0;

    /** Charges @p n cycles of the retired SMs' accounting (a live cycle
     *  passes 1, an idle-skip gap its length). */
    void
    accountIdleCores(std::uint64_t n)
    {
        launch.stats.delayLimitCycleSum += idleDelaySum * n;
        launch.stats.smCycles += idleCores * n;
    }
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_DEVICE_HPP
