/**
 * perfbench: the repository's benchmark program (see perfbench/README.md).
 *
 *   perfbench --workload fig09_sweep|litmus_matrix|functional_suite
 *             --seed N --seconds S --trace 0|1
 *             [--jobs N] [--out FILE] [--dump-artifact FILE]
 *             [--commit SHA] [--source-sha256 HEX]
 *
 * Repeats the workload's sweep for about S seconds and prints one line
 * per metric, then, as the last line, a JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics over the passes; --trace 1 times the layer
 * components, alternates untraced and traced passes (stall attribution
 * on) and reports the per-layer metrics. Exits 1 when any point fails,
 * any artifact check fails or the stats digest changes between passes.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/components.hpp"
#include "perfbench/src/spans.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/harness/json.hpp"
#include "src/trace/trace.hpp"

using namespace perfbench;
using bowsim::KernelStats;
using bowsim::SchedulerKind;
using bowsim::harness::Json;

namespace {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Options {
    WorkloadSpec spec;
    double seconds = 10.0;
    bool trace = false;
    std::string outPath;
    std::string artifactPath;
    std::string commit = "unknown";
    std::string sourceSha = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--jobs N] [--out FILE] "
                 "[--dump-artifact FILE] [--commit SHA] "
                 "[--source-sha256 HEX]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseWorkload(value, &o.spec.kind))
                usage(("unknown workload '" + value + "'").c_str());
            o.spec.name = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.spec.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0))
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace");
            o.trace = value == "1";
        } else if (flag == "--jobs") {
            jobs = static_cast<unsigned>(
                std::strtoul(value.c_str(), &end, 10));
            if (value.empty() || *end != '\0' || jobs == 0)
                usage("bad --jobs");
        } else if (flag == "--out") {
            o.outPath = value;
        } else if (flag == "--dump-artifact") {
            o.artifactPath = value;
        } else if (flag == "--commit") {
            o.commit = value;
        } else if (flag == "--source-sha256") {
            o.sourceSha = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    switch (o.spec.kind) {
      case WorkloadKind::Fig09Sweep:
        o.spec.jobs = nproc;
        o.spec.scale = 0.25;
        break;
      case WorkloadKind::LitmusMatrix:
        o.spec.jobs = nproc;
        break;
      case WorkloadKind::FunctionalSuite:
        o.spec.jobs = 1;
        o.spec.scale = 1.0;
        break;
    }
    if (jobs != 0)
        o.spec.jobs = jobs;
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * Peak resident set of this process image in MB: VmHWM, not
 * ru_maxrss, which on Linux carries the pre-exec high-water mark of
 * the launching process (e.g. the Python wrapper) across execve.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    return 0.0;
}

/**
 * Geometric-mean BOWS speedup (base cycles / BOWS cycles) over the
 * fig09 kernel x scheduler pairs; @p only restricts it to one
 * scheduler. 0 when the workload has no such pairs.
 */
double
bowsSpeedup(const Pass &it, const SchedulerKind *only)
{
    std::map<std::pair<std::string, SchedulerKind>, std::pair<double, double>>
        pairs;
    for (const PointResult &p : it.points) {
        if (p.kernel.empty() || p.stats.cycles == 0)
            continue;
        if (only && p.scheduler != *only)
            continue;
        auto &slot = pairs[{p.kernel, p.scheduler}];
        (p.bows ? slot.second : slot.first) =
            static_cast<double>(p.stats.cycles);
    }
    double log_sum = 0.0;
    unsigned n = 0;
    for (const auto &[key, cyc] : pairs) {
        if (cyc.first > 0 && cyc.second > 0) {
            log_sum += std::log(cyc.first / cyc.second);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/** Highest of these percentiles with at least ten samples beyond it. */
void
tailPercentile(std::vector<double> samples, double *value, double *pct)
{
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    *pct = 100.0;
    *value = samples.empty() ? 0.0 : samples.back();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - p / 100.0) >= 10.0) {
            std::size_t idx = static_cast<std::size_t>(
                std::ceil(p / 100.0 * n)) - 1;
            *pct = p;
            *value = samples[std::min(idx, samples.size() - 1)];
            return;
        }
    }
}

/**
 * End-to-end metrics over the untraced passes: for each metric, the
 * median over passes of the pass's host times divided by its slowdown,
 * i.e. in reference-host seconds (calibrate.hpp). With @p raw, the
 * medians of the plain host times.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<const Pass *> &passes, bool raw)
{
    std::vector<double> wall, cpu, setup, kinst;
    for (const Pass *it : passes) {
        const double f = raw ? 1.0 : it->slowdown;
        wall.push_back(it->wallS / f);
        cpu.push_back(it->cpuS / f);
        setup.push_back(it->setupS / f);
        kinst.push_back(ratio(it->warpInsts / 1e3, it->wallS / f));
    }
    return {
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_kinst_per_s", median(kinst), "kinst/s"},
    };
}

/** Simulated-result metrics: identical on every pass of a seed. */
std::vector<Metric>
modelMetrics(const std::vector<const Pass *> &untraced)
{
    const Pass &it = *untraced.front();
    std::vector<double> kcyc;
    for (const Pass *u : untraced)
        kcyc.push_back(ratio(u->cycles / 1e3, u->wallS / u->slowdown));
    const SchedulerKind lrr = SchedulerKind::LRR;
    const SchedulerKind gto = SchedulerKind::GTO;
    const SchedulerKind cawa = SchedulerKind::CAWA;
    return {
        {"sim_cycles", static_cast<double>(it.cycles), "cycles"},
        {"sim_kcycles_per_s", median(kcyc), "kcycles/s"},
        {"bows_speedup", bowsSpeedup(it, nullptr), "ratio"},
        {"bows.speedup_lrr", bowsSpeedup(it, &lrr), "ratio"},
        {"bows.speedup_gto", bowsSpeedup(it, &gto), "ratio"},
        {"bows.speedup_cawa", bowsSpeedup(it, &cawa), "ratio"},
    };
}

std::vector<Metric>
counterMetrics(const Pass &it, std::vector<std::string> &problems)
{
    KernelStats s;  // field-wise sums over the points
    std::uint64_t bows_resident = 0, bows_backed = 0;
    std::uint64_t bows_delay_sum = 0, bows_sm_cycles = 0;
    std::uint64_t true_branches = 0, true_detected = 0;
    std::uint64_t litmus[4] = {0, 0, 0, 0};
    std::uint64_t cyc_all = 0, cyc_aborted = 0;
    std::uint64_t sp_attempts = 0, sp_failures = 0, sp_storms = 0;
    std::array<std::uint64_t, bowsim::trace::kNumStallCauses> stall{};
    std::uint64_t stall_total = 0, stall_resident = 0;
    for (const PointResult &p : it.points) {
        const KernelStats &k = p.stats;
        s.cycles += k.cycles;
        s.warpInstructions += k.warpInstructions;
        s.activeLaneSum += k.activeLaneSum;
        s.sibInstructions += k.sibInstructions;
        s.l1Accesses += k.l1Accesses;
        s.l1Hits += k.l1Hits;
        s.mem += k.mem;
        s.outcomes += k.outcomes;
        s.residentWarpCycles += k.residentWarpCycles;
        s.energyNj += k.energyNj;
        s.staticEnergyNj += k.staticEnergyNj;
        if (p.bows) {
            bows_resident += k.residentWarpCycles;
            bows_backed += k.backedOffWarpCycles;
            bows_delay_sum += k.delayLimitCycleSum;
            bows_sm_cycles += k.smCycles;
        }
        true_branches += k.ddos.trueBranches;
        true_detected += k.ddos.trueDetected;
        if (k.hasStallBreakdown()) {
            const auto totals = k.stallTotals();
            std::uint64_t point_total = 0;
            for (unsigned c = 0; c < totals.size(); ++c) {
                stall[c] += totals[c];
                point_total += totals[c];
            }
            stall_total += point_total;
            stall_resident += k.residentWarpCycles;
        }
        if (p.isCell) {
            ++litmus[static_cast<unsigned>(p.cell.outcome)];
            cyc_all += k.cycles;
            if (p.cell.outcome != bowsim::harness::SyncOutcome::Completed)
                cyc_aborted += k.cycles;
            sp_attempts += p.cell.evidenceCasAttempts;
            sp_failures += p.cell.evidenceCasFailures;
            sp_storms += p.cell.evidenceStorms;
        }
    }
    // Each resident warp-cycle is attributed to exactly one cause.
    if (stall_total != stall_resident) {
        problems.push_back("stall breakdown covers " +
                           std::to_string(stall_total) + " of " +
                           std::to_string(stall_resident) +
                           " resident warp-cycles");
    }
    const std::uint64_t cas_failures =
        s.outcomes.interWarpFail + s.outcomes.intraWarpFail;
    std::vector<Metric> m = {
        {"sim.ipc", ratio(s.warpInstructions, s.cycles), "ratio"},
        {"sim.simd_efficiency",
         ratio(s.activeLaneSum, 32.0 * s.warpInstructions), "ratio"},
        {"sched.resident_warp_cycles",
         static_cast<double>(s.residentWarpCycles), "count"},
        {"sched.issue_ratio",
         ratio(s.warpInstructions, s.residentWarpCycles), "ratio"},
    };
    for (unsigned c = 0; c < bowsim::trace::kNumStallCauses; ++c) {
        m.push_back({std::string("sched.stall.") +
                         bowsim::trace::toString(
                             static_cast<bowsim::trace::StallCause>(c)),
                     ratio(stall[c], stall_total), "ratio"});
    }
    const std::vector<Metric> rest = {
        {"bows.backed_off_share", ratio(bows_backed, bows_resident),
         "ratio"},
        {"bows.avg_delay_limit", ratio(bows_delay_sum, bows_sm_cycles),
         "cycles"},
        {"ddos.sib_instructions", static_cast<double>(s.sibInstructions),
         "count"},
        {"ddos.tsdr", ratio(true_detected, true_branches), "ratio"},
        {"mem.l1_accesses", static_cast<double>(s.l1Accesses), "count"},
        {"mem.l1_hit_ratio", ratio(s.l1Hits, s.l1Accesses), "ratio"},
        {"mem.l2_accesses", static_cast<double>(s.mem.l2Accesses), "count"},
        {"mem.l2_hit_ratio", ratio(s.mem.l2Hits, s.mem.l2Accesses),
         "ratio"},
        {"mem.dram_accesses", static_cast<double>(s.mem.dramAccesses),
         "count"},
        {"mem.icnt_packets", static_cast<double>(s.mem.icntPackets),
         "count"},
        {"mem.atomics", static_cast<double>(s.mem.atomics), "count"},
        {"mem.atomic_wait_cycles",
         static_cast<double>(s.mem.atomicWaitCycles), "cycles"},
        {"mem.link_packets", static_cast<double>(s.mem.linkPackets),
         "count"},
        {"sync.lock_success", static_cast<double>(s.outcomes.lockSuccess),
         "count"},
        {"sync.cas_failures", static_cast<double>(cas_failures), "count"},
        {"sync.cas_success_ratio",
         ratio(s.outcomes.lockSuccess, s.outcomes.lockSuccess + cas_failures),
         "ratio"},
        {"harness.litmus.completed", static_cast<double>(litmus[0]),
         "count"},
        {"harness.litmus.livelocked", static_cast<double>(litmus[1]),
         "count"},
        {"harness.litmus.deadlocked", static_cast<double>(litmus[2]),
         "count"},
        {"harness.litmus.watchdog_killed", static_cast<double>(litmus[3]),
         "count"},
        {"harness.litmus.watchdog_cycle_share", ratio(cyc_aborted, cyc_all),
         "ratio"},
        {"syncprof.cas_attempts", static_cast<double>(sp_attempts),
         "count"},
        {"syncprof.failed_share", ratio(sp_failures, sp_attempts), "ratio"},
        {"syncprof.storms", static_cast<double>(sp_storms), "count"},
        {"energy.dynamic_nj", s.energyNj, "nJ"},
        {"energy.static_nj", s.staticEnergyNj, "nJ"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/**
 * Host-time metrics from the spans of the traced passes, in
 * reference-host seconds like the end-to-end metrics.
 */
std::vector<Metric>
spanMetrics(const std::vector<const Pass *> &traced,
            const std::vector<const Pass *> &untraced, unsigned jobs)
{
    std::vector<double> point_samples;
    std::map<std::string, std::vector<double>> self;
    std::vector<double> longest, efficiency;
    double point_sum = 0.0, child_sum = 0.0;
    std::size_t spans = 0;
    std::uint64_t launches = 0, warp_insts = 0, cycles = 0;
    for (const Pass *it : traced) {
        const double f = it->slowdown;
        std::map<std::string, double> iter_self;
        it->mainLog.addSelfTimes(iter_self);
        double iter_points = 0.0, iter_longest = 0.0;
        spans += it->mainLog.spans().size();
        for (const SpanLog &log : it->pointLogs) {
            log.addSelfTimes(iter_self);
            spans += log.spans().size();
            const double d = log.total("point") / f;
            point_samples.push_back(d);
            iter_points += d;
            iter_longest = std::max(iter_longest, d);
            for (const Span &s : log.spans()) {
                if (std::strcmp(s.name, "launch") == 0 ||
                    std::strcmp(s.name, "litmus_cell") == 0)
                    ++launches;
            }
        }
        // Point time outside its child spans is the point's self time.
        point_sum += iter_points;
        child_sum += iter_points - iter_self["point"] / f;
        longest.push_back(iter_longest);
        efficiency.push_back(ratio(iter_points, jobs * it->wallS / f));
        for (const char *name : {"point", "construct", "setup", "launch",
                                 "validate", "litmus_cell", "cell_build",
                                 "artifact"})
            self[name].push_back(iter_self[name] / f);
        warp_insts += it->warpInsts;
        cycles += it->cycles;
    }
    double tail = 0.0, tail_pct = 0.0;
    tailPercentile(point_samples, &tail, &tail_pct);
    double simulate_s = 0.0;  // summed over traced passes
    for (const char *name : {"launch", "litmus_cell"}) {
        for (double v : self[name])
            simulate_s += v;
    }
    std::vector<double> traced_wall, untraced_wall;
    for (const Pass *it : traced)
        traced_wall.push_back(it->wallS / it->slowdown);
    for (const Pass *it : untraced)
        untraced_wall.push_back(it->wallS / it->slowdown);
    return {
        {"harness.point_p50_s", median(point_samples), "s"},
        {"harness.point_tail_s", tail, "s"},
        {"harness.point_tail_pct", tail_pct, "%"},
        {"harness.point_samples", static_cast<double>(point_samples.size()),
         "count"},
        {"harness.longest_point_s", median(longest), "s"},
        {"harness.parallel_efficiency", median(efficiency), "ratio"},
        {"harness.point_self_s", median(self["point"]), "s"},
        {"harness.artifact_s", median(self["artifact"]), "s"},
        {"harness.cell_build_s", median(self["cell_build"]), "s"},
        {"harness.litmus_cell_s", median(self["litmus_cell"]), "s"},
        {"kernels.construct_s", median(self["construct"]), "s"},
        {"kernels.setup_s", median(self["setup"]), "s"},
        {"kernels.validate_s", median(self["validate"]), "s"},
        {"sim.launch_s", median(self["launch"]), "s"},
        {"sim.launches",
         traced.empty() ? 0.0
                        : static_cast<double>(launches) / traced.size(),
         "count"},
        {"sim.host_ns_per_warp_inst", ratio(simulate_s * 1e9, warp_insts),
         "ns"},
        {"sim.host_ns_per_cycle", ratio(simulate_s * 1e9, cycles), "ns"},
        {"trace.overhead", ratio(median(traced_wall), median(untraced_wall)),
         "ratio"},
        {"trace.child_coverage", ratio(child_sum, point_sum), "ratio"},
        {"trace.spans", static_cast<double>(spans), "count"},
    };
}

Json
metricsJson(const std::vector<Metric> &metrics)
{
    Json out = Json::object();
    for (const Metric &m : metrics) {
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        out.set(m.name, std::move(v));
    }
    return out;
}

Json
spansJson(const std::vector<const Pass *> &traced)
{
    Json out = Json::array();
    for (std::size_t k = 0; k < traced.size(); ++k) {
        const Pass &it = *traced[k];
        auto add = [&](const SpanLog &log) {
            for (const Span &s : log.spans()) {
                Json j = Json::object();
                j.set("pass", static_cast<std::uint64_t>(k));
                j.set("name", s.name);
                j.set("start", s.start);
                j.set("end", s.end);
                j.set("parent", s.parent);
                j.set("point", s.point < 0 ? std::string()
                                           : it.points[s.point].id);
                out.push(std::move(j));
            }
        };
        add(it.mainLog);
        for (const SpanLog &log : it.pointLogs)
            add(log);
    }
    return out;
}

void
printMetrics(const char *section, const std::vector<Metric> &metrics)
{
    std::printf("# %s\n", section);
    for (const Metric &m : metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const WorkloadSpec &spec = opt.spec;

    Json prov = Json::object();
    prov.set("workload", spec.name);
    prov.set("seed", static_cast<std::uint64_t>(spec.seed));
    prov.set("trace", opt.trace);
    prov.set("seconds", opt.seconds);
    prov.set("workers", spec.jobs);
    prov.set("scale", spec.scale);
    prov.set("nproc", std::max(1u, std::thread::hardware_concurrency()));
    prov.set("cpu_model", cpuModel());
    prov.set("compiler", PERFBENCH_COMPILER);
    prov.set("build_type", PERFBENCH_BUILD_TYPE);
    prov.set("cxx_flags", PERFBENCH_CXX_FLAGS);
    prov.set("git_commit", opt.commit);
    prov.set("source_sha256", opt.sourceSha);
    for (const auto &[key, value] : prov.members())
        std::printf("# %s: %s\n", key.c_str(),
                    value.type() == Json::Type::String
                        ? value.asString().c_str()
                        : value.dump().c_str());
    std::fflush(stdout);

    std::vector<Component> components;
    if (opt.trace)
        components = timeComponents();

    // Repeat passes until the next one would end further past the budget
    // than stopping now falls short of it. A traced run alternates
    // untraced and traced passes and needs at least one of each.
    std::vector<Pass> passes;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0;
    const double start = now();
    std::vector<double> pass_s;
    for (;;) {
        const bool traced = opt.trace && passes.size() % 2 == 1;
        const double t0 = now();
        const bool keep = passes.empty() && !opt.artifactPath.empty();
        Pass it = runPass(spec, traced, keep);
        pass_s.push_back(now() - t0);
        for (const PointResult &p : it.points) {
            ++attempted;
            if (!p.ok) {
                ++failed;
                problems.push_back("point " + p.id + " failed: " + p.error);
            }
        }
        if (!it.artifactOk)
            problems.push_back("artifact check failed: " + it.artifactError);
        if (!passes.empty() && it.digest != passes.front().digest) {
            problems.push_back(std::string("stats digest of a ") +
                               (traced ? "traced" : "untraced") +
                               " pass differs from the first pass");
        }
        if (keep) {
            std::ofstream out(opt.artifactPath);
            out << it.artifactText << "\n";
            if (!out)
                problems.push_back("cannot write " + opt.artifactPath);
        }
        // Later untraced passes keep only their summary, so peak RSS
        // does not grow with the number of passes.
        if (!traced && !passes.empty()) {
            it.points = {};
            it.pointLogs = {};
        }
        passes.push_back(std::move(it));
        const double elapsed = now() - start;
        if (opt.trace && passes.size() < 2)
            continue;
        if (elapsed + 0.5 * median(pass_s) >= opt.seconds)
            break;
    }

    std::vector<const Pass *> untraced, traced;
    for (const Pass &it : passes)
        (it.traced ? traced : untraced).push_back(&it);

    const std::vector<Metric> e2e = endToEndMetrics(untraced, false);
    std::vector<double> slowdowns;
    for (const Pass *it : untraced)
        slowdowns.push_back(it->slowdown);
    const std::vector<Metric> model = modelMetrics(untraced);
    std::vector<Metric> layer;
    if (opt.trace) {
        layer = model;
        const std::vector<Metric> spans =
            spanMetrics(traced, untraced, spec.jobs);
        layer.insert(layer.end(), spans.begin(), spans.end());
        const std::vector<Metric> counters =
            counterMetrics(*traced.front(), problems);
        layer.insert(layer.end(), counters.begin(), counters.end());
        for (const Component &c : components)
            layer.push_back({c.name, c.ns, "ns"});
    }

    std::printf("# passes: %zu untraced, %zu traced\n", untraced.size(),
                traced.size());
    std::printf("# stats digest (sha256): %s\n",
                passes.front().digest.c_str());
    std::printf("# host slowdown vs reference (median over untraced "
                "passes): %.4f\n",
                median(slowdowns));
    printMetrics("end-to-end metrics (reference-host seconds, median over "
                 "untraced passes)",
                 e2e);
    printMetrics("end-to-end metrics (plain host seconds, median over "
                 "untraced passes)",
                 endToEndMetrics(untraced, true));
    printMetrics("simulated results", model);
    if (spec.kind == WorkloadKind::Fig09Sweep) {
        // EXPERIMENTS.md: the paper reports these on Fermi from
        // GPGPU-Sim at 10-100x larger inputs; a reference, not a target.
        std::printf("# BOWS speedup vs paper (GPGPU-Sim, full inputs): "
                    "LRR %.3f vs 2.2, GTO %.3f vs 1.4, CAWA %.3f vs 1.5\n",
                    model[3].value, model[4].value, model[5].value);
    }
    if (opt.trace)
        printMetrics("per-layer metrics (traced run)", layer);
    for (const std::string &p : problems)
        std::printf("# FAIL: %s\n", p.c_str());

    if (!opt.outPath.empty()) {
        Json doc = Json::object();
        doc.set("provenance", prov);
        Json pass_list = Json::array();
        for (const Pass &it : passes) {
            Json j = Json::object();
            j.set("traced", it.traced);
            j.set("wall_s", it.wallS);
            j.set("cpu_s", it.cpuS);
            j.set("setup_s", it.setupS);
            j.set("slowdown", it.slowdown);
            j.set("digest", it.digest);
            Json pts = Json::array();
            for (double d : it.pointS)
                pts.push(d);
            j.set("point_s", std::move(pts));
            Json probes = Json::array();
            for (double d : it.probeS)
                probes.push(d);
            j.set("probe_s", std::move(probes));
            pass_list.push(std::move(j));
        }
        doc.set("passes", std::move(pass_list));
        std::vector<Metric> all = e2e;
        const std::vector<Metric> &rest = opt.trace ? layer : model;
        all.insert(all.end(), rest.begin(), rest.end());
        doc.set("metrics", metricsJson(all));
        doc.set("spans", spansJson(traced));
        Json fails = Json::array();
        for (const std::string &p : problems)
            fails.push(p);
        doc.set("problems", std::move(fails));
        std::ofstream out(opt.outPath);
        out << doc.dump(1) << "\n";
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.outPath.c_str());
            return 1;
        }
    }

    const bool correct = problems.empty();
    Json result = Json::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", metricsJson(opt.trace ? layer : e2e));
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}
