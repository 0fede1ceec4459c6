#ifndef BOWSIM_HARNESS_SWEEP_HPP
#define BOWSIM_HARNESS_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/harness/json.hpp"
#include "src/stats/stats.hpp"

namespace bowsim {
class GpuSystem;
using Gpu = GpuSystem;
}

/**
 * @file
 * Parallel simulation sweep harness. A sweep is a list of independent
 * (kernel, GpuConfig) points; SweepRunner executes them on a fixed pool
 * of worker threads. Each point constructs its own Gpu/MemorySystem, so
 * runs are fully isolated and results are bit-identical regardless of
 * the worker count. Results come back in submission order, and a point
 * that throws (e.g. a SimError from the deadlock watchdog) is captured
 * as a per-point error instead of killing the sweep.
 */

namespace bowsim::harness {

class ResultCache;

/**
 * A point's side outputs: the observers the runner attaches to its Gpu
 * (trace recorder, metrics sampler, sync-contention profiler) and the
 * file each one writes. Every file is written even when the point
 * fails — the window leading up to a watchdog abort is the one worth
 * reading — and the first failed write fails an otherwise good point.
 * Each point owns its observers, so side outputs are safe under any
 * --jobs. The observers watch the cycle pipeline only.
 */
struct SideOutputs {
    /** Sample spacing used while metricsPath is set and
     *  metricsInterval is 0. */
    static constexpr Cycle kDefaultMetricsInterval = 1000;

    /** Chrome trace_event JSON of a ring-buffered trace recorder
     *  (docs/TRACING.md). */
    std::string tracePath;
    /** trace::Category bitmask applied to the recorder (parsed from
     *  --trace-filter by trace::parseCategoryFilter); events outside it
     *  never enter the ring. 0 records everything. */
    std::uint32_t traceMask = 0;
    /** Sampled metrics time series: CSV for a ".csv" suffix, else JSON
     *  (docs/METRICS.md). */
    std::string metricsPath;
    /** Metrics sample spacing in simulated cycles; see sampleInterval(). */
    Cycle metricsInterval = 0;
    /** JSON sync-contention report (docs/SYNC.md), validated by
     *  `json_check --sync-report`. Byte-identical across --jobs and
     *  idle-skip. */
    std::string syncReportPath;
    /** Attach a sync profiler even without a syncReportPath, for the
     *  --profile report's "hot sync objects" section
     *  (SweepResult::syncProfileText). */
    bool profile = false;

    /** Whether any observer is attached (such a point is never served
     *  from the result cache; see fingerprintPoint). */
    bool
    any() const
    {
        return !tracePath.empty() || !metricsPath.empty() ||
               !syncReportPath.empty() || profile;
    }

    /** The metrics sample spacing in effect — metricsInterval, or
     *  kDefaultMetricsInterval while sampling with metricsInterval 0 —
     *  recorded per point as config.metrics_interval. */
    Cycle
    sampleInterval() const
    {
        if (metricsInterval == 0 && !metricsPath.empty())
            return kDefaultMetricsInterval;
        return metricsInterval;
    }
};

/** One independent simulation in a sweep. */
struct SweepPoint {
    /** Unique label for output/JSON rows, e.g. "HT/B500". */
    std::string id;
    /** Registry benchmark name; used when gpuBody is not set. */
    std::string kernel;
    GpuConfig cfg;
    /** Workload scale passed to makeBenchmark for the default body. */
    double scale = 1.0;
    /**
     * Custom workload on a runner-provided Gpu (e.g. non-registry
     * parameterizations): the runner constructs Gpu(cfg), attaches
     * observers (trace recorder, metrics sampler), and hands it to this
     * body. When empty the point runs makeBenchmark(kernel, scale) on
     * the Gpu.
     */
    std::function<KernelStats(Gpu &)> gpuBody;
    /** Observers attached to the point's Gpu and the files they write. */
    SideOutputs outputs;
    /**
     * Opt-in content key for `gpuBody` points (ignored otherwise). The
     * runner cannot see inside a gpuBody closure, so such a point is
     * only cacheable when the bench declares a salt covering everything
     * the closure's behavior depends on — at minimum
     * fingerprintPrograms() of the harness it runs plus every
     * parameter baked into the closure. An empty salt (the default)
     * keeps the point safely uncacheable. See docs/BENCH.md.
     */
    std::string cacheSalt;
};

/** Outcome of one sweep point. */
struct SweepResult {
    /** How the result was obtained (sweep artifacts do not record
     *  this — cold and warm runs must emit identical points). */
    enum class Source { Simulated, CacheHit };

    bool ok = false;
    KernelStats stats;
    /** Exception message when !ok. */
    std::string error;
    Source source = Source::Simulated;
    /** "Hot sync objects" text for the --profile report (points run
     *  with a sync profiler attached; empty otherwise). */
    std::string syncProfileText;
};

/**
 * Worker count: explicit @p requested if nonzero, else the hardware
 * concurrency (at least 1). The benches parse --jobs / BOWSIM_JOBS
 * themselves and pass the result here.
 */
unsigned resolveJobs(unsigned requested = 0);

class SweepRunner {
  public:
    /** @p jobs == 0 resolves via resolveJobs(). */
    explicit SweepRunner(unsigned jobs = 0) : jobs_(resolveJobs(jobs)) {}

    unsigned jobs() const { return jobs_; }

    /**
     * Called after each point finishes, with its submission index and
     * result (e.g. the --progress heartbeat). Invoked from worker
     * threads under a run-internal mutex, so the callback itself needs
     * no locking; keep it cheap — it serializes point completion.
     */
    using PointCallback = std::function<void(std::size_t,
                                            const SweepResult &)>;
    void setPointCallback(PointCallback cb) { callback_ = std::move(cb); }

    /**
     * Attaches a persistent result cache (docs/BENCH.md, "Result
     * cache"): the runner serves a fingerprint hit without simulating;
     * misses simulate and (rw mode) store their result. Points that
     * fingerprintPoint() declares not cacheable (side outputs, unsalted
     * gpuBody closures) always simulate and count as bypassed.
     * @p cache must outlive run(); nullptr detaches.
     */
    void setCache(ResultCache *cache) { cache_ = cache; }

    /**
     * Runs every point and returns results in submission order. With
     * jobs() == 1 everything runs on the calling thread.
     */
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points) const;

  private:
    SweepResult execPoint(const SweepPoint &point) const;

    unsigned jobs_;
    PointCallback callback_;
    ResultCache *cache_ = nullptr;
};

/**
 * Serializes the interesting fields of @p s (deterministic order).
 * Fatal on NaN/Inf in any floating-point field — such a value is a
 * simulator bug, and emitting it would produce invalid JSON that a
 * cache read would then silently treat as a corrupt record.
 */
Json statsToJson(const KernelStats &s);

/**
 * Inverse of statsToJson: rebuilds a KernelStats from its JSON form.
 * Raw counters are read back exactly; derived fields (ipc,
 * simd_efficiency, avg_delay_limit, the ddos rates, the per-cause
 * stall totals) are recomputed from the raws, so
 * statsToJson(statsFromJson(j)) == j byte-for-byte. Throws FatalError
 * on missing or ill-typed fields (the result cache maps that to a
 * miss).
 */
KernelStats statsFromJson(const Json &j);

/**
 * Builds the BENCH_*.json artifact document for one finished sweep:
 * { "bench", "jobs", ["cache"], "points": [ {id, kernel, ok, config,
 * stats|error} ] }. When @p cache is non-null a "cache" block records
 * its mode and hit/miss/stored/bypassed counters (validated by
 * json_check); the "points" array is identical either way, so cold and
 * warm runs differ only in that block.
 */
Json sweepToJson(const std::string &bench_name, unsigned jobs,
                 const std::vector<SweepPoint> &points,
                 const std::vector<SweepResult> &results,
                 const ResultCache *cache = nullptr);

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_SWEEP_HPP
