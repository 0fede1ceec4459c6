#ifndef BOWSIM_METRICS_PROGRESS_HPP
#define BOWSIM_METRICS_PROGRESS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

/**
 * @file
 * Sweep heartbeat (bench flag --progress): one stderr status line,
 * rewritten after every finished sweep point, showing points done/total,
 * aggregate simulated cycles per wall-clock second, and an ETA.
 * Thread-safe — the sweep runner's workers report completions
 * concurrently. Purely observational: it never touches simulator state
 * and writes only to stderr, so stdout tables and JSON artifacts are
 * byte-identical with and without it.
 */

namespace bowsim::metrics {

class ProgressMeter {
  public:
    /**
     * EWMA smoothing factor for per-point completion gaps. High enough
     * to track a sweep whose points grow (sweeps often order points
     * small-to-large), low enough that one outlier point does not swing
     * the ETA.
     */
    static constexpr double kEwmaAlpha = 0.3;

    /** Begins a run of @p total points labeled @p label. */
    void start(std::string label, std::size_t total);

    /**
     * Shows "cache H hit / M miss" in the status line (result cache
     * attached, docs/BENCH.md). Call between start() and the first
     * completion; off by default so cacheless sweeps keep their line
     * unchanged.
     */
    void enableCacheDisplay();

    /**
     * Records one finished point that simulated @p sim_cycles cycles.
     * @p from_cache marks a point served from the result cache without
     * simulation: it counts toward the hit gauge and contributes no
     * sim-cycles worth of throughput.
     */
    void pointDone(std::uint64_t sim_cycles, bool from_cache = false);

    /**
     * Explicit-clock variant of pointDone for unit tests: @p now_secs
     * is wall time since start(). The ETA math lives behind this entry
     * point so it can be exercised deterministically.
     */
    void pointDoneAt(std::uint64_t sim_cycles, double now_secs,
                     bool from_cache = false);

    /** Completed points served from the result cache. */
    std::uint64_t cacheHits();
    /** Completed points that had to simulate. */
    std::uint64_t cacheMisses();

    /**
     * Estimated seconds until the last point completes: the EWMA of
     * per-point completion gaps times the number of remaining points.
     * Completion gaps — not per-point durations — so a parallel sweep's
     * ETA reflects the pool's aggregate throughput. 0 before the first
     * completion and after the last.
     */
    double etaSeconds();

    /** Prints the final line and a newline (leaves the line visible). */
    void finish();

  private:
    void printLine(bool last, double now_secs);
    double etaLocked() const;

    std::mutex mu_;
    std::string label_;
    std::size_t total_ = 0;
    std::size_t done_ = 0;
    std::uint64_t simCycles_ = 0;
    bool cacheDisplay_ = false;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;
    std::chrono::steady_clock::time_point start_;
    /** Completion time of the most recent point, seconds since start(). */
    double lastDone_ = 0.0;
    /** EWMA of gaps between consecutive point completions (seconds). */
    double ewmaGap_ = 0.0;
    bool active_ = false;
};

}  // namespace bowsim::metrics

#endif  // BOWSIM_METRICS_PROGRESS_HPP
