#ifndef PERFBENCH_CALIBRATE_HPP
#define PERFBENCH_CALIBRATE_HPP

#include <cstdint>
#include <vector>

#include "perfbench/src/spans.hpp"

/**
 * @file
 * A fixed host-speed probe that shares no code with the simulator. Each
 * sweep worker runs it just before every point, so the probe samples
 * the host's speed at the same moments and on the same cores as the
 * simulation. On a shared host the speed of a core drifts by up to
 * ~1.7x over tens of seconds as neighbours load the machine. The same
 * drift slows the probe, so a pass's host times divided by its slowdown
 * (median probe time over kProbeRefS) cancel it, while a change to the
 * simulator leaves the probe as it was.
 */

namespace perfbench {

/** Probe time, in seconds, on the reference host (perfbench/README.md). */
constexpr double kProbeRefS = 2.5e-4;

/**
 * Runs the probe once on the calling thread and returns its host time
 * in seconds: a dependent random walk over a 64 KB table, warmed into
 * the core's caches first, mixed with data-dependent branches and
 * integer hashing.
 */
inline double
runProbe()
{
    constexpr std::uint32_t kEntries = 1u << 14;  // 64 KB of uint32_t
    constexpr int kIters = 40000;
    thread_local std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(kEntries);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t &e : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x) & (kEntries - 1);
        }
        return t;
    }();
    std::uint32_t i = 1;
    std::uint32_t acc = 0;
    double t0 = 0.0;
    for (int k = -static_cast<int>(kEntries); k < kIters; ++k) {
        if (k == 0)
            t0 = now();
        i = table[i ^ (acc & 0xff)];
        acc = acc * 0x01000193u + i;
        if (acc & 0x10)
            acc ^= acc >> 11;
        else
            acc += k;
    }
    const double t = now() - t0;
    // Keeps the walk from being optimized away.
    static volatile std::uint32_t sink;
    sink = acc;
    return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_HPP
