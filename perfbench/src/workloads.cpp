#include "perfbench/src/workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "perfbench/src/calibrate.hpp"
#include "src/common/log.hpp"
#include "src/harness/fingerprint.hpp"
#include "src/harness/json_check.hpp"
#include "src/harness/sweep.hpp"
#include "src/kernels/atm.hpp"
#include "src/kernels/bh_sort.hpp"
#include "src/kernels/bh_tree.hpp"
#include "src/kernels/cp_ds.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/nw.hpp"
#include "src/kernels/registry.hpp"
#include "src/kernels/syncfree.hpp"
#include "src/kernels/tsp.hpp"
#include "src/sim/gpu.hpp"

namespace perfbench {

using namespace bowsim;
using harness::SweepPoint;
using harness::SweepResult;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig09_sweep", "litmus_matrix", "functional_suite"};
    return names;
}

bool
parseWorkload(const std::string &name, WorkloadKind *out)
{
    static const WorkloadKind kinds[] = {WorkloadKind::Fig09Sweep,
                                         WorkloadKind::LitmusMatrix,
                                         WorkloadKind::FunctionalSuite};
    for (std::size_t i = 0; i < workloadNames().size(); ++i) {
        if (workloadNames()[i] == name) {
            *out = kinds[i];
            return true;
        }
    }
    return false;
}

namespace {

// The registry's size rules (src/kernels/registry.cpp), repeated so
// seeded inputs keep the registry's sizes. Seed 0 is checked against
// makeBenchmark() output through the fig09_fermi identity check.
unsigned
scaled(unsigned base, double scale)
{
    return std::max(1u, static_cast<unsigned>(std::lround(base * scale)));
}

unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Seed 0 keeps the factory's default seed; others mix it (splitmix64). */
std::uint64_t
derive(std::uint64_t base, std::uint64_t seed)
{
    if (seed == 0)
        return base;
    std::uint64_t z = base + seed * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Removes the tables only a stall-attributing (traced) run fills, so
 *  traced and untraced digests compare. */
void
stripStallTables(KernelStats &s)
{
    s.stallCounts.clear();
    s.stallWarpsPerSm = 0;
    s.unitIssues.clear();
    s.unitsPerSm = 0;
    for (KernelStats &shard : s.perDevice)
        stripStallTables(shard);
}

std::string
digestOf(const std::vector<PointResult> &points)
{
    harness::FingerprintHasher h;
    for (const PointResult &p : points) {
        h.add("id", p.id);
        h.add("ok", p.ok);
        if (p.isCell)
            h.add("outcome", std::string(harness::toString(p.cell.outcome)));
        KernelStats s = p.stats;
        stripStallTables(s);
        h.add("stats", harness::statsToJson(s).dump());
    }
    return h.hex();
}

/** A kernel point of fig09_sweep or functional_suite. */
struct KernelPoint {
    std::string id;
    std::string kernel;
    GpuConfig cfg;
};

std::vector<KernelPoint>
kernelPoints(const WorkloadSpec &spec)
{
    std::vector<KernelPoint> out;
    if (spec.kind == WorkloadKind::Fig09Sweep) {
        // fig09_fermi's order and labels.
        const char *labels[6] = {"LRR",   "LRR+B", "GTO",
                                 "GTO+B", "CAWA",  "CAWA+B"};
        for (const std::string &name : syncKernelNames()) {
            unsigned i = 0;
            for (SchedulerKind sched : {SchedulerKind::LRR,
                                        SchedulerKind::GTO,
                                        SchedulerKind::CAWA}) {
                for (bool bows : {false, true}) {
                    GpuConfig cfg = makeGtx480Config();
                    cfg.scheduler = sched;
                    cfg.bows.enabled = bows;
                    out.push_back({name + "/" + labels[i], name, cfg});
                    ++i;
                }
            }
        }
    } else {
        std::vector<std::string> names = syncKernelNames();
        names.insert(names.end(), syncFreeKernelNames().begin(),
                     syncFreeKernelNames().end());
        for (const std::string &name : names) {
            GpuConfig cfg = makeGtx480Config();
            cfg.execMode = ExecMode::Functional;
            out.push_back({name, name, cfg});
        }
    }
    return out;
}

/**
 * KernelHarness::run with a span around each layer call: construction,
 * setup, every Gpu::launch, validate. Launch statistics are merged
 * exactly as KernelHarness::run merges them.
 */
KernelStats
runKernelPoint(const WorkloadSpec &spec, const KernelPoint &kp, Gpu &gpu,
               SpanLog &log)
{
    SpanScope point(log, "point");
    std::unique_ptr<KernelHarness> h;
    {
        SpanScope s(log, "construct", point.index());
        h = makeSeededKernel(kp.kernel, spec.scale, spec.seed);
    }
    {
        SpanScope s(log, "setup", point.index());
        h->setup(gpu);
    }
    KernelStats total;
    total.kernel = h->name();
    bool first = true;
    for (const LaunchSpec &ls : h->launches()) {
        SpanScope s(log, "launch", point.index());
        KernelStats st = gpu.launch(*ls.prog, ls.grid, ls.block, ls.params);
        if (first) {
            std::string keep = total.kernel;
            total = st;
            total.kernel = keep;
            first = false;
        } else {
            total += st;
        }
    }
    bool valid = false;
    {
        SpanScope s(log, "validate", point.index());
        valid = h->validate(gpu);
    }
    if (!valid)
        fatal("benchmark '", h->name(), "' failed validation");
    return total;
}

void
runKernelSweep(const WorkloadSpec &spec, bool traced, bool keep_artifact,
               Pass &it)
{
    const std::vector<KernelPoint> kps = kernelPoints(spec);
    const std::size_t n = kps.size();
    for (std::size_t i = 0; i < n; ++i)
        it.pointLogs.emplace_back(static_cast<int>(i));

    it.probeS.assign(n, 0.0);
    std::vector<SweepPoint> points(n);
    for (std::size_t i = 0; i < n; ++i) {
        points[i].id = kps[i].id;
        points[i].kernel = kps[i].kernel;
        points[i].scale = spec.scale;
        points[i].cfg = kps[i].cfg;
        points[i].cfg.collectStallBreakdown = traced;
        // Each closure writes only its own span log.
        points[i].gpuBody = [&spec, &kps, &it, i](Gpu &gpu) {
            it.probeS[i] = runProbe();
            return runKernelPoint(spec, kps[i], gpu, it.pointLogs[i]);
        };
    }

    std::vector<SweepResult> results;
    {
        const double cpu0 = processCpuSeconds();
        SpanScope sweep(it.mainLog, "sweep");
        const double t0 = now();
        results = harness::SweepRunner(spec.jobs).run(points);
        it.wallS = now() - t0;
        it.cpuS = processCpuSeconds() - cpu0;
    }

    for (std::size_t i = 0; i < n; ++i) {
        PointResult p;
        p.id = kps[i].id;
        p.kernel = kps[i].kernel;
        p.scheduler = kps[i].cfg.scheduler;
        p.bows = kps[i].cfg.bows.enabled;
        p.ok = results[i].ok;
        p.error = results[i].error;
        p.stats = results[i].stats;
        it.points.push_back(std::move(p));
        it.setupS += it.pointLogs[i].total("construct") +
                     it.pointLogs[i].total("setup");
    }

    SpanScope artifact(it.mainLog, "artifact");
    // Named like the fig09_fermi artifact so `json_check
    // --compare-points` can compare the two.
    const char *bench = spec.kind == WorkloadKind::Fig09Sweep
                            ? "fig09_fermi"
                            : "functional_suite";
    const harness::Json doc =
        harness::sweepToJson(bench, spec.jobs, points, results);
    const harness::CheckResult check = harness::checkSweepArtifact(
        doc, static_cast<std::int64_t>(n));
    it.artifactOk = check.ok;
    it.artifactError = check.message;
    if (keep_artifact)
        it.artifactText = doc.dump();
}

void
runLitmus(const WorkloadSpec &spec, bool traced, bool keep_artifact,
          Pass &it)
{
    using harness::LitmusCell;
    using harness::LitmusCellResult;
    const harness::LitmusOptions opts = harness::defaultLitmusOptions();
    std::vector<LitmusCell> cells;
    {
        SpanScope s(it.mainLog, "cell_build");
        cells = harness::buildLitmusCells(opts);
    }
    it.setupS = it.mainLog.total("cell_build");
    const std::size_t n = cells.size();
    for (std::size_t i = 0; i < n; ++i)
        it.pointLogs.emplace_back(static_cast<int>(i));

    it.probeS.assign(n, 0.0);
    std::vector<LitmusCellResult> cellResults(n);
    std::vector<SweepPoint> points(n);
    for (std::size_t i = 0; i < n; ++i) {
        points[i].id = cells[i].id;
        points[i].cfg = cells[i].cfg;
        points[i].cfg.collectStallBreakdown = traced;
        points[i].gpuBody = [&cells, &cellResults, &it, i](Gpu &gpu) {
            it.probeS[i] = runProbe();
            SpanLog &log = it.pointLogs[i];
            SpanScope point(log, "point");
            SpanScope cell(log, "litmus_cell", point.index());
            cellResults[i] = harness::runLitmusCell(cells[i], gpu);
            return cellResults[i].stats;
        };
    }

    std::vector<SweepResult> results;
    {
        const double cpu0 = processCpuSeconds();
        SpanScope sweep(it.mainLog, "sweep");
        const double t0 = now();
        results = harness::SweepRunner(spec.jobs).run(points);
        it.wallS = now() - t0;
        it.cpuS = processCpuSeconds() - cpu0;
    }

    for (std::size_t i = 0; i < n; ++i) {
        PointResult p;
        p.id = cells[i].id;
        p.scheduler = cells[i].scheduler;
        p.bows = cells[i].bows;
        p.ok = results[i].ok;
        p.error = results[i].error;
        p.stats = results[i].stats;
        p.isCell = true;
        p.cell = cellResults[i];
        it.points.push_back(std::move(p));
    }

    SpanScope artifact(it.mainLog, "artifact");
    const harness::Json doc =
        harness::litmusToJson("litmus", opts, cells, cellResults);
    const harness::CheckResult check = harness::checkLitmusMatrix(
        doc, static_cast<std::int64_t>(n));
    it.artifactOk = check.ok;
    it.artifactError = check.message;
    if (keep_artifact)
        it.artifactText = doc.dump();
}

}  // namespace

std::unique_ptr<KernelHarness>
makeSeededKernel(const std::string &name, double scale, std::uint64_t seed)
{
    if (seed == 0)
        return makeBenchmark(name, scale);
    if (name == "HT") {
        HashtableParams p;
        p.insertions = scaled(12288, scale);
        p.buckets = 128;
        p.seed = derive(p.seed, seed);
        return makeHashtable(p);
    }
    if (name == "ATM") {
        AtmParams p;
        p.transactions = scaled(12288, scale);
        p.accounts = 250;
        p.seed = derive(p.seed, seed);
        return makeAtm(p);
    }
    if (name == "TSP") {
        TspParams p;
        p.climbers = scaled(3000, scale);
        p.rounds = 24;
        p.seed = derive(p.seed, seed);
        return makeTsp(p);
    }
    if (name == "NW1" || name == "NW2") {
        NwParams p;
        p.n = scaled(160, scale);
        p.seed = derive(p.seed, seed);
        return makeNw(p, name == "NW2");
    }
    if (name == "DS") {
        CpDsParams p;
        p.side = scaled(48, scale);
        p.seed = derive(p.seed, seed);
        return makeCpDs(p);
    }
    if (name == "TB" || name == "ST")
        return makeBenchmark(name, scale);
    SyncFreeParams sf;
    sf.elements = nextPow2(scaled(65536, scale));
    sf.seed = derive(sf.seed, seed);
    if (name == "VEC")
        return makeVecAdd(sf);
    if (name == "KM")
        return makeKmeansInvert(sf);
    if (name == "MS")
        return makeMergeSortPass(sf);
    if (name == "HL")
        return makeHeartWall(sf);
    if (name == "RED")
        return makeReduction(sf);
    if (name == "STEN")
        return makeStencil(sf);
    fatal("perfbench: no seeded factory for kernel '", name, "'");
}

Pass
runPass(const WorkloadSpec &spec, bool traced, bool keep_artifact)
{
    Pass it;
    it.traced = traced;
    if (spec.kind == WorkloadKind::LitmusMatrix)
        runLitmus(spec, traced, keep_artifact, it);
    else
        runKernelSweep(spec, traced, keep_artifact, it);
    it.digest = digestOf(it.points);
    for (const SpanLog &log : it.pointLogs)
        it.pointS.push_back(log.total("point"));
    std::vector<double> probes = it.probeS;
    for (double p : probes)
        it.cpuS -= p;
    std::sort(probes.begin(), probes.end());
    const std::size_t m = probes.size();
    it.slowdown = (m % 2 ? probes[m / 2]
                         : 0.5 * (probes[m / 2 - 1] + probes[m / 2])) /
                  kProbeRefS;
    for (const PointResult &p : it.points) {
        it.warpInsts += p.stats.warpInstructions;
        it.cycles += p.stats.cycles;
    }
    return it;
}

}  // namespace perfbench
