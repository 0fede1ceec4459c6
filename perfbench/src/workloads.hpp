#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.hpp"
#include "src/harness/litmus.hpp"
#include "src/kernels/kernel_harness.hpp"
#include "src/stats/stats.hpp"

/**
 * @file
 * The benchmark's three workloads, each one sweep submitted through
 * SweepRunner in the order the repository's bench binaries use:
 *
 *  - fig09_sweep: the 8 sync kernels x {LRR, GTO, CAWA} x {base, +BOWS}
 *    on GTX480 in cycle mode (the fig09_fermi panel), nproc workers.
 *  - litmus_matrix: the default 288-cell litmus matrix, nproc workers.
 *  - functional_suite: all 14 kernels in functional mode, one worker.
 *
 * Every point runs on the default execution path: result cache off,
 * sm_threads 1, idle-skip on, no sampled mode, no opaque `body` points.
 */

namespace perfbench {

enum class WorkloadKind { Fig09Sweep, LitmusMatrix, FunctionalSuite };

/** "fig09_sweep", "litmus_matrix", "functional_suite". */
const std::vector<std::string> &workloadNames();

/** False on an unknown name. */
bool parseWorkload(const std::string &name, WorkloadKind *out);

struct WorkloadSpec {
    std::string name;
    WorkloadKind kind = WorkloadKind::Fig09Sweep;
    /** Input seed; 0 reproduces the kernel registry's inputs. */
    std::uint64_t seed = 0;
    /** Sweep workers. */
    unsigned jobs = 1;
    /** Kernel-size scale (makeBenchmark semantics); unused by litmus. */
    double scale = 1.0;
};

/**
 * Builds the named kernel with the registry's sizes at @p scale. Seed 0
 * gives exactly makeBenchmark(name, scale); other seeds rebuild the
 * kernels with input randomness (HT, ATM, DS, NW1/NW2, TSP and the
 * sync-free kernels) through their public factories with derived
 * seeds. TB and ST have no input randomness, so every seed gives them
 * the registry inputs.
 */
std::unique_ptr<bowsim::KernelHarness>
makeSeededKernel(const std::string &name, double scale, std::uint64_t seed);

/** One sweep point's outcome in one pass. */
struct PointResult {
    std::string id;
    bool ok = false;
    /** Exception message when !ok. */
    std::string error;
    bowsim::KernelStats stats;
    /** litmus_matrix only: classification and contention evidence. */
    bool isCell = false;
    bowsim::harness::LitmusCellResult cell;
    /** Scheduler and BOWS setting of the point (fig09 pairing). */
    bowsim::SchedulerKind scheduler = bowsim::SchedulerKind::GTO;
    bool bows = false;
    std::string kernel;
};

/** One full pass over a workload's sweep. */
struct Pass {
    bool traced = false;
    /** Sweep start to last point done. */
    double wallS = 0.0;
    /** Process user + sys time over the same interval, less the
     *  probe's own time. */
    double cpuS = 0.0;
    /** Preparation before the first launch, summed over points
     *  (harness construction + setup; litmus: cell building). */
    double setupS = 0.0;
    /** Simulated warp instructions and cycles over all points. */
    std::uint64_t warpInsts = 0;
    std::uint64_t cycles = 0;
    /** Host time of each point (its "point" span), in sweep order. */
    std::vector<double> pointS;
    /** Host time of the speed probe run just before each point. */
    std::vector<double> probeS;
    /** Median probe time over kProbeRefS: how much slower than the
     *  reference host this pass ran. Host times divided by it are in
     *  reference-host seconds. */
    double slowdown = 1.0;
    /** Spans per point, and the main thread's spans (sweep, cell
     *  building, artifact). */
    std::vector<SpanLog> pointLogs;
    SpanLog mainLog;
    std::vector<PointResult> points;
    /** SHA-256 over every point's id, outcome and statsToJson (with
     *  the stall-breakdown tables a traced run adds removed). */
    std::string digest;
    /** json_check verdict on the pass's artifact. */
    bool artifactOk = false;
    std::string artifactError;
    /** Serialized artifact (kept only when requested). */
    std::string artifactText;
};

/**
 * Runs one pass. @p traced turns on GpuConfig::collectStallBreakdown
 * for every point; spans are recorded either way. @p keep_artifact
 * stores the serialized artifact in Pass::artifactText.
 */
Pass runPass(const WorkloadSpec &spec, bool traced,
             bool keep_artifact = false);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
