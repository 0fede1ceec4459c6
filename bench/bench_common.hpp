#ifndef BOWSIM_BENCH_BENCH_COMMON_HPP
#define BOWSIM_BENCH_BENCH_COMMON_HPP

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/harness/result_cache.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/registry.hpp"
#include "src/metrics/kernel_profile.hpp"
#include "src/metrics/progress.hpp"
#include "src/sim/gpu.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses. Each bench
 * binary regenerates one table or figure of the paper; rows print as
 * tab-separated text so results can be diffed and plotted directly.
 *
 * Every binary declares its simulations as a Sweep — an ordered list of
 * independent (kernel, GpuConfig) points — and executes it through
 * runSweep(), which runs the points on a worker pool (--jobs=N /
 * BOWSIM_JOBS) and optionally writes a machine-readable artifact
 * (--json=FILE). Results come back in declaration order, so the printed
 * tables are byte-identical regardless of the worker count.
 */

namespace bowsim::bench {

using harness::SweepPoint;
using harness::SweepResult;

/** Command-line options shared by every bench binary (see docs/BENCH.md). */
struct BenchOptions {
    /** Workload scale factor (--scale / BOWSIM_SCALE). */
    double scale = 1.0;
    /** Simulated core count override; 0 leaves each config untouched
     *  (--cores / BOWSIM_CORES). */
    unsigned cores = 0;
    /**
     * Simulated device (GPU) count override; 0 leaves each config
     * untouched (--devices / BOWSIM_DEVICES). Values above 1 shard the
     * launch across that many devices joined by the modeled
     * inter-device link (docs/PERF.md, "Device sharding"). Recorded per
     * point as config.num_devices when it differs from 1.
     */
    unsigned devices = 0;
    /** Sweep worker threads (--jobs / BOWSIM_JOBS); 0 means the
     *  hardware concurrency. */
    unsigned jobs = 0;
    /** When set, runSweep() writes the sweep artifact here (--json). */
    std::string jsonPath;
    /**
     * Escape hatch for the idle-cycle fast-forward (--no-skip /
     * BOWSIM_NO_SKIP): forces GpuConfig::idleSkip off on every point.
     * Results are bit-identical either way (that is tested); the flag
     * exists for wall-clock comparisons and for ruling the skip logic
     * out when debugging. Recorded per point in the JSON artifact as
     * config.idle_skip.
     */
    bool noSkip = false;
    /**
     * Side outputs (docs/BENCH.md): --trace / --trace-filter /
     * --metrics / --metrics-interval / --sync-report / --profile and
     * their BOWSIM_* variables. The paths are base paths that runSweep
     * fans out per point (outputsFor), so side outputs are safe under
     * --jobs > 1. `profile` also turns on
     * GpuConfig::collectStallBreakdown for every point and prints
     * metrics::profileReport after the sweep.
     */
    harness::SideOutputs outputs;
    /**
     * Sweep heartbeat (--progress / BOWSIM_PROGRESS): one stderr status
     * line rewritten after every finished point with done/total counts,
     * aggregate sim-cycles/s, and an ETA. stdout is untouched.
     */
    bool progress = false;
    /**
     * Execution mode override (--exec-mode=cycle|functional /
     * BOWSIM_EXEC_MODE): forces GpuConfig::execMode on every point.
     * hasExecMode distinguishes "not given" from an explicit cycle.
     * Recorded per point as config.exec_mode (docs/PERF.md, "Execution
     * modes").
     */
    bool hasExecMode = false;
    ExecMode execMode = ExecMode::Cycle;
    /**
     * Persistent result cache (--cache=off|ro|rw / BOWSIM_CACHE; see
     * docs/BENCH.md, "Result cache"). Off by default: caching is opt-in
     * so a default invocation always re-simulates. An interrupted rw
     * sweep resumes by running the same command again.
     */
    harness::CacheMode cacheMode = harness::CacheMode::Off;
    /** Cache directory (--cache-dir= / BOWSIM_CACHE_DIR); defaults to
     *  .bowsim-cache in the working directory. */
    std::string cacheDir = ".bowsim-cache";
};

/** Sanitizes a point id into a filename fragment (slashes etc. -> '_'). */
inline std::string
sanitizeId(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!keep)
            c = '_';
    }
    return out;
}

/** Derives a per-point side-output file: BASE.POINT.json next to BASE. */
inline std::string
tracePathFor(const std::string &base, const std::string &id)
{
    std::string stem = base;
    std::string ext = ".json";
    std::size_t slash = stem.find_last_of('/');
    std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = stem.substr(dot);
        stem.resize(dot);
    }
    return stem + "." + sanitizeId(id) + ext;
}

/**
 * Point @p p's side outputs: every base path fanned out by tracePathFor.
 * Side-output files observe the cycle pipeline only, so a point that
 * runs in functional mode (a bench may set cfg.execMode itself) gets no
 * file paths rather than an empty trace, series or report.
 */
inline harness::SideOutputs
outputsFor(const harness::SideOutputs &base, const SweepPoint &p)
{
    harness::SideOutputs out = base;
    const bool functional = p.cfg.execMode == ExecMode::Functional;
    for (std::string *path :
         {&out.tracePath, &out.metricsPath, &out.syncReportPath}) {
        if (functional)
            path->clear();
        else if (!path->empty())
            *path = tracePathFor(*path, p.id);
    }
    return out;
}

/**
 * Parses a numeric option value: the whole of @p text must be one
 * non-negative, finite number of type T (std::from_chars, so no sign,
 * no trailing characters, no overflow). Anything else prints
 * "error: bad NAME 'TEXT'" and exits 2, like an unknown --exec-mode.
 */
template <typename T>
T
parseNumber(const char *name, const char *text)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value) && value >= 0;
    if (!ok) {
        std::fprintf(stderr, "error: bad %s '%s'\n", name, text);
        std::exit(2);
    }
    return value;
}

/**
 * Parses --scale= / --cores= / --devices= / --jobs= / --json= /
 * --trace= / --trace-filter= / --no-skip / --metrics= /
 * --metrics-interval= / --sync-report= / --profile /
 * --progress / --exec-mode= / --cache= / --cache-dir= plus the
 * corresponding BOWSIM_* environment variables (flags win over the
 * environment, the environment wins over the bench's defaults). Unknown arguments are
 * ignored so binaries with their own flags can share the parser;
 * malformed values of known ones exit 2 with an error.
 */
inline BenchOptions
parseOptions(int argc, char **argv, double default_scale = 1.0,
             unsigned default_cores = 0)
{
    BenchOptions o;
    o.scale = default_scale;
    o.cores = default_cores;
    if (const char *env = std::getenv("BOWSIM_SCALE"))
        o.scale = parseNumber<double>("BOWSIM_SCALE", env);
    if (const char *env = std::getenv("BOWSIM_CORES"))
        o.cores = parseNumber<unsigned>("BOWSIM_CORES", env);
    if (const char *env = std::getenv("BOWSIM_DEVICES"))
        o.devices = parseNumber<unsigned>("BOWSIM_DEVICES", env);
    if (const char *env = std::getenv("BOWSIM_JOBS"))
        o.jobs = parseNumber<unsigned>("BOWSIM_JOBS", env);
    harness::SideOutputs &out = o.outputs;
    std::string trace_filter;
    if (const char *env = std::getenv("BOWSIM_TRACE"))
        out.tracePath = env;
    if (const char *env = std::getenv("BOWSIM_TRACE_FILTER"))
        trace_filter = env;
    if (const char *env = std::getenv("BOWSIM_SYNC_REPORT"))
        out.syncReportPath = env;
    if (const char *env = std::getenv("BOWSIM_NO_SKIP"))
        o.noSkip = env[0] != '\0' && env[0] != '0';
    if (const char *env = std::getenv("BOWSIM_METRICS"))
        out.metricsPath = env;
    if (const char *env = std::getenv("BOWSIM_METRICS_INTERVAL"))
        out.metricsInterval =
            parseNumber<Cycle>("BOWSIM_METRICS_INTERVAL", env);
    if (const char *env = std::getenv("BOWSIM_PROFILE"))
        out.profile = env[0] != '\0' && env[0] != '0';
    if (const char *env = std::getenv("BOWSIM_PROGRESS"))
        o.progress = env[0] != '\0' && env[0] != '0';
    auto setExecMode = [&o](const char *text) {
        if (!parseExecMode(text, &o.execMode)) {
            std::fprintf(stderr,
                         "error: unknown exec mode '%s' (expected "
                         "cycle or functional)\n",
                         text);
            std::exit(2);
        }
        o.hasExecMode = true;
    };
    if (const char *env = std::getenv("BOWSIM_EXEC_MODE"))
        setExecMode(env);
    auto setCacheMode = [&o](const char *text) {
        if (!harness::parseCacheMode(text, &o.cacheMode)) {
            std::fprintf(stderr,
                         "error: unknown cache mode '%s' (expected "
                         "off, ro or rw)\n",
                         text);
            std::exit(2);
        }
    };
    if (const char *env = std::getenv("BOWSIM_CACHE"))
        setCacheMode(env);
    if (const char *env = std::getenv("BOWSIM_CACHE_DIR"))
        o.cacheDir = env;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scale=", 8) == 0)
            o.scale = parseNumber<double>("--scale", argv[i] + 8);
        else if (std::strncmp(argv[i], "--cores=", 8) == 0)
            o.cores = parseNumber<unsigned>("--cores", argv[i] + 8);
        else if (std::strncmp(argv[i], "--devices=", 10) == 0)
            o.devices = parseNumber<unsigned>("--devices", argv[i] + 10);
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            o.jobs = parseNumber<unsigned>("--jobs", argv[i] + 7);
        else if (std::strncmp(argv[i], "--json=", 7) == 0)
            o.jsonPath = argv[i] + 7;
        else if (std::strncmp(argv[i], "--trace=", 8) == 0)
            out.tracePath = argv[i] + 8;
        else if (std::strncmp(argv[i], "--trace-filter=", 15) == 0)
            trace_filter = argv[i] + 15;
        else if (std::strncmp(argv[i], "--sync-report=", 14) == 0)
            out.syncReportPath = argv[i] + 14;
        else if (std::strcmp(argv[i], "--no-skip") == 0)
            o.noSkip = true;
        else if (std::strncmp(argv[i], "--metrics-interval=", 19) == 0)
            out.metricsInterval =
                parseNumber<Cycle>("--metrics-interval", argv[i] + 19);
        else if (std::strncmp(argv[i], "--metrics=", 10) == 0)
            out.metricsPath = argv[i] + 10;
        else if (std::strcmp(argv[i], "--profile") == 0)
            out.profile = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            o.progress = true;
        else if (std::strncmp(argv[i], "--exec-mode=", 12) == 0)
            setExecMode(argv[i] + 12);
        else if (std::strncmp(argv[i], "--cache=", 8) == 0)
            setCacheMode(argv[i] + 8);
        else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0)
            o.cacheDir = argv[i] + 12;
    }
    if (!trace_filter.empty() &&
        !trace::parseCategoryFilter(trace_filter, &out.traceMask)) {
        std::fprintf(stderr,
                     "error: bad --trace-filter '%s' (expected a comma "
                     "list of pipe, mem, ddos, bows, barrier or sync)\n",
                     trace_filter.c_str());
        std::exit(2);
    }
    // Side-output files observe the cycle pipeline only; a functional
    // run would write empty traces and series and all-zero reports.
    if (o.hasExecMode && o.execMode == ExecMode::Functional) {
        const std::pair<const char *, const std::string &> files[] = {
            {"--trace", out.tracePath},
            {"--metrics", out.metricsPath},
            {"--sync-report", out.syncReportPath}};
        for (const auto &[flag, path] : files) {
            if (!path.empty()) {
                std::fprintf(stderr, "error: %s needs --exec-mode=cycle\n",
                             flag);
                std::exit(2);
            }
        }
    }
    return o;
}

/** Applies the --cores override, when one was given. */
inline void
applyCores(const BenchOptions &opts, GpuConfig &cfg)
{
    if (opts.cores != 0)
        cfg.numCores = opts.cores;
}

/** Declarative sweep: the simulations one bench binary performs. */
struct Sweep {
    /** Bench name recorded in the JSON artifact, e.g. "fig10_delay_sweep". */
    std::string name;
    std::vector<SweepPoint> points;

    /** Adds a registry-kernel point; returns its index. */
    size_t
    add(std::string id, std::string kernel, GpuConfig cfg, double scale)
    {
        SweepPoint p;
        p.id = std::move(id);
        p.kernel = std::move(kernel);
        p.cfg = cfg;
        p.scale = scale;
        points.push_back(std::move(p));
        return points.size() - 1;
    }

    /**
     * Adds a custom point (non-registry parameterizations) that runs on
     * a runner-provided Gpu. The runner owns Gpu construction, so
     * --trace/--metrics/--no-skip/--profile all apply.
     * @p cache_salt opts the point into the result cache: it must cover
     * everything the closure's behavior depends on beyond the config —
     * at minimum fingerprintPrograms() of the harness it runs plus all
     * baked-in parameters (see SweepPoint::cacheSalt). Empty (the
     * default) keeps the point uncacheable.
     */
    size_t
    add(std::string id, GpuConfig cfg,
        std::function<KernelStats(Gpu &)> gpu_body,
        std::string cache_salt = std::string())
    {
        SweepPoint p;
        p.id = std::move(id);
        p.cfg = cfg;
        p.gpuBody = std::move(gpu_body);
        p.cacheSalt = std::move(cache_salt);
        points.push_back(std::move(p));
        return points.size() - 1;
    }
};

/**
 * Runs @p sweep on a SweepRunner(opts.jobs) pool, writes the JSON
 * artifact when opts.jsonPath is set, and returns the per-point results
 * in declaration order. A failed point (e.g. a deadlock-watchdog
 * SimError) is reported on stderr and aborts the bench with exit(1) —
 * after the artifact is written, so partial results are preserved.
 */
inline std::vector<SweepResult>
runSweep(const BenchOptions &opts, const Sweep &sweep)
{
    harness::SweepRunner runner(opts.jobs);
    // Per-point overrides (side-output fan-out, --no-skip) operate on a
    // copy; the artifact then records the configs that actually ran.
    std::vector<SweepPoint> points = sweep.points;
    for (SweepPoint &p : points) {
        if (opts.noSkip)
            p.cfg.idleSkip = false;
        if (opts.devices != 0)
            p.cfg.numDevices = opts.devices;
        if (opts.outputs.profile)
            p.cfg.collectStallBreakdown = true;
        if (opts.hasExecMode)
            p.cfg.execMode = opts.execMode;
        p.outputs = outputsFor(opts.outputs, p);
    }
    // Result cache (docs/BENCH.md): the runner serves fingerprint hits
    // without simulating. The cache must outlive runner.run().
    std::unique_ptr<harness::ResultCache> cache;
    if (opts.cacheMode != harness::CacheMode::Off) {
        cache = std::make_unique<harness::ResultCache>(opts.cacheDir,
                                                       opts.cacheMode);
        runner.setCache(cache.get());
    }
    metrics::ProgressMeter meter;
    if (opts.progress) {
        meter.start(sweep.name, points.size());
        if (cache)
            meter.enableCacheDisplay();
        runner.setPointCallback(
            [&meter](std::size_t, const SweepResult &r) {
                meter.pointDone(r.stats.cycles,
                                r.source ==
                                    SweepResult::Source::CacheHit);
            });
    }
    std::vector<SweepResult> results = runner.run(points);
    if (opts.progress)
        meter.finish();
    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.jsonPath.c_str());
            std::exit(1);
        }
        out << harness::sweepToJson(sweep.name, runner.jobs(), points,
                                    results, cache.get())
                   .dump()
            << "\n";
    }
    bool failed = false;
    for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            std::fprintf(stderr, "error: sweep point '%s' failed: %s\n",
                         sweep.points[i].id.c_str(),
                         results[i].error.c_str());
            failed = true;
        }
    }
    if (failed)
        std::exit(1);
    if (opts.outputs.profile) {
        for (size_t i = 0; i < results.size(); ++i) {
            std::printf("\n[%s]\n%s", points[i].id.c_str(),
                        metrics::profileReport(results[i].stats).c_str());
            if (!results[i].syncProfileText.empty())
                std::printf("%s", results[i].syncProfileText.c_str());
        }
        std::printf("\n");
    }
    return results;
}

inline void
printHeader(const char *title)
{
    std::printf("# %s\n", title);
}

}  // namespace bowsim::bench

#endif  // BOWSIM_BENCH_BENCH_COMMON_HPP
