#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/harness/litmus.hpp"
#include "src/kernels/registry.hpp"
#include "src/sim/gpu.hpp"

/**
 * Golden-stats regression tests (labeled `slow`): cycle counts and
 * synchronization outcomes for HT and ATM pinned at an exact
 * configuration, under GTO and (ATM with BOWS) CAWA. The simulator is
 * deterministic, so any drift here is a real behavior change — timing
 * model, scheduler, DDOS, or BOWS. When a change is intentional,
 * re-measure and update the constants in the same commit, and say why
 * in the commit message.
 *
 * Config: GTX480 model, 4 SMs, registry kernels at scale 0.25.
 */

namespace bowsim {
namespace {

struct Golden {
    const char *kernel;
    SchedulerKind scheduler;
    bool bows;
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t lockSuccess;
    std::uint64_t interWarpFail;
    std::uint64_t intraWarpFail;
};

const Golden kGolden[] = {
    {"HT", SchedulerKind::GTO, false, 42912, 27588, 3072, 38725, 352},
    {"HT", SchedulerKind::GTO, true, 52209, 20764, 3072, 33703, 352},
    {"ATM", SchedulerKind::GTO, false, 314299, 169255, 21460, 284005,
     1846},
    {"ATM", SchedulerKind::GTO, true, 171181, 84529, 15012, 145520, 916},
    // CAWA ranks by criticality with a greedy component: pins the
    // policy's arbitration under BOWS deprioritization.
    {"ATM", SchedulerKind::CAWA, true, 164089, 80992, 14643, 134424,
     1133},
};

/** Without this, gtest prints the raw bytes of the struct, address of
 *  the kernel-name literal included, and the discovered test IDs change
 *  with every build. */
void PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.kernel << (g.bows ? " bows" : " base");
    if (g.scheduler != SchedulerKind::GTO)
        *os << ' ' << toString(g.scheduler);
}

class GoldenStats : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenStats, PinnedCyclesAndOutcomes)
{
    const Golden &g = GetParam();
    // Both fast-forward modes must land on the same golden values: the
    // skip is an equivalence-preserving transformation (docs/PERF.md),
    // so a divergence here localizes a horizon/accounting bug.
    for (bool idle_skip : {true, false}) {
        GpuConfig cfg = makeGtx480Config();
        cfg.numCores = 4;
        cfg.scheduler = g.scheduler;
        cfg.bows.enabled = g.bows;
        cfg.idleSkip = idle_skip;
        Gpu gpu(cfg);
        KernelStats s = makeBenchmark(g.kernel, 0.25)->run(gpu);

        const char *mode = idle_skip ? "idleSkip=on" : "idleSkip=off";
        EXPECT_EQ(s.cycles, g.cycles) << mode;
        EXPECT_EQ(s.warpInstructions, g.warpInstructions) << mode;
        EXPECT_EQ(s.outcomes.lockSuccess, g.lockSuccess) << mode;
        EXPECT_EQ(s.outcomes.interWarpFail, g.interWarpFail) << mode;
        EXPECT_EQ(s.outcomes.intraWarpFail, g.intraWarpFail) << mode;
        // Neither kernel uses wait-style loops at this scale.
        EXPECT_EQ(s.outcomes.waitExitSuccess, 0u) << mode;
        EXPECT_EQ(s.outcomes.waitExitFail, 0u) << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(HtAtm, GoldenStats, ::testing::ValuesIn(kGolden),
                         [](const auto &info) {
                             const Golden &g = info.param;
                             std::string name =
                                 std::string(g.kernel) +
                                 (g.bows ? "_bows" : "_base");
                             // GTO rows keep their original names.
                             if (g.scheduler != SchedulerKind::GTO)
                                 name += std::string("_") +
                                         toString(g.scheduler);
                             return name;
                         });

TEST(GoldenStats, BowsReducesAtmSpinOverhead)
{
    // The paper's headline effect, pinned qualitatively: BOWS cuts
    // failed lock acquires on the contended account array.
    const Golden &base = kGolden[2];
    const Golden &bows = kGolden[3];
    EXPECT_LT(bows.interWarpFail, base.interWarpFail);
    EXPECT_LT(bows.cycles, base.cycles);
}

// --- litmus cells (docs/SYNC.md) --------------------------------------

/** One pinned litmus-matrix cell, run at the default litmus config. */
struct LitmusGolden {
    const char *name;  // test suffix
    sync::Primitive primitive;
    SchedulerKind scheduler;
    bool bows;
    harness::OccupancyLevel occupancy;
    harness::SyncOutcome outcome;
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t lockSuccess;
    std::uint64_t interWarpFail;
    std::uint64_t waitExitSuccess;
    std::uint64_t waitExitFail;
    std::uint64_t sibInstructions;
};

/** Stable test IDs, like PrintTo(const Golden &) above. */
void PrintTo(const LitmusGolden &g, std::ostream *os)
{
    *os << g.name;
}

const LitmusGolden kLitmusGolden[] = {
    // The known-livelocking cell: over-subscribed TAS under pure GTO
    // with scarce atomic bandwidth — the spinners' CAS storm starves
    // the release; the watchdog kills a spin-dominated stream.
    {"tas_gto_base_over", sync::Primitive::TasLock, SchedulerKind::GTO,
     false, harness::OccupancyLevel::Over,
     harness::SyncOutcome::Livelocked, 3'000'000, 22829, 347, 5182, 0,
     0, 5065},
    // The same cell with BOWS enabled (only change): completes.
    {"tas_gto_bows_over", sync::Primitive::TasLock, SchedulerKind::GTO,
     true, harness::OccupancyLevel::Over,
     harness::SyncOutcome::Completed, 2'246'556, 20562, 512, 3334, 0,
     0, 3231},
    // A known-safe FIFO cell: every acquisition exits its wait exactly
    // once, the rest of the wait checks are counted spin retries.
    {"ticket_lrr_base_exact", sync::Primitive::TicketLock,
     SchedulerKind::LRR, false, harness::OccupancyLevel::Exact,
     harness::SyncOutcome::Completed, 206'073, 28263, 0, 0, 256, 7485,
     7241},
    // TwoLevel's group-then-slot arbitration on the software back-off
    // lock at exact occupancy.
    {"backoff_twolevel_base_exact", sync::Primitive::BackoffLock,
     SchedulerKind::TwoLevel, false, harness::OccupancyLevel::Exact,
     harness::SyncOutcome::Completed, 2'066'526, 356864, 256, 3524, 0, 0,
     78797},
};

class LitmusGoldenStats
    : public ::testing::TestWithParam<LitmusGolden> {};

TEST_P(LitmusGoldenStats, PinnedOutcomeAndCounters)
{
    const LitmusGolden &g = GetParam();
    harness::LitmusOptions opts = harness::defaultLitmusOptions();
    opts.primitives = {g.primitive};
    opts.schedulers = {g.scheduler};
    opts.bowsModes = {g.bows};
    opts.occupancies = {g.occupancy};
    opts.devices = {1};  // the pinned counters are single-device
    const std::vector<harness::LitmusCell> cells =
        harness::buildLitmusCells(opts);
    ASSERT_EQ(cells.size(), 1u);
    // The classification consumes the abort record, which is
    // deterministic across the idle-skip fast-forward by contract.
    for (bool idle_skip : {true, false}) {
        GpuConfig cfg = cells[0].cfg;
        cfg.idleSkip = idle_skip;
        Gpu gpu(cfg);
        const harness::LitmusCellResult r =
            harness::runLitmusCell(cells[0], gpu);
        const char *mode = idle_skip ? "idleSkip=on" : "idleSkip=off";
        EXPECT_EQ(r.outcome, g.outcome) << mode;
        EXPECT_EQ(r.stats.cycles, g.cycles) << mode;
        EXPECT_EQ(r.stats.warpInstructions, g.warpInstructions) << mode;
        EXPECT_EQ(r.stats.outcomes.lockSuccess, g.lockSuccess) << mode;
        EXPECT_EQ(r.stats.outcomes.interWarpFail, g.interWarpFail)
            << mode;
        EXPECT_EQ(r.stats.outcomes.waitExitSuccess, g.waitExitSuccess)
            << mode;
        EXPECT_EQ(r.stats.outcomes.waitExitFail, g.waitExitFail)
            << mode;
        EXPECT_EQ(r.stats.sibInstructions, g.sibInstructions) << mode;
    }
}

INSTANTIATE_TEST_SUITE_P(LitmusCells, LitmusGoldenStats,
                         ::testing::ValuesIn(kLitmusGolden),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

}  // namespace
}  // namespace bowsim
