#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "src/sched/cawa.hpp"
#include "src/sched/gto.hpp"
#include "src/sched/lrr.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sched/two_level.hpp"

#include "src/isa/assembler.hpp"
#include "src/sim/gpu.hpp"
#include "tests/test_seeds.hpp"

namespace bowsim {
namespace {

std::vector<std::unique_ptr<Warp>>
makeWarps(unsigned n)
{
    std::vector<std::unique_ptr<Warp>> warps;
    for (unsigned i = 0; i < n; ++i) {
        warps.push_back(
            std::make_unique<Warp>(i, 0, i, i, 8, 2, kFullMask));
    }
    return warps;
}

std::vector<Warp *>
raw(const std::vector<std::unique_ptr<Warp>> &warps)
{
    std::vector<Warp *> out;
    for (const auto &w : warps)
        out.push_back(w.get());
    return out;
}

std::vector<unsigned>
ids(const std::vector<Warp *> &warps)
{
    std::vector<unsigned> out;
    for (const Warp *w : warps)
        out.push_back(w->id());
    return out;
}

// ------------------------------------------------------------------ LRR

TEST(Lrr, InitialOrderIsById)
{
    auto owned = makeWarps(4);
    auto list = raw(owned);
    LrrScheduler lrr;
    lrr.order(list, 0);
    EXPECT_EQ(ids(list), (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Lrr, RotatesPastLastIssued)
{
    auto owned = makeWarps(4);
    auto list = raw(owned);
    LrrScheduler lrr;
    lrr.notifyIssued(owned[1].get(), 0);
    lrr.order(list, 1);
    EXPECT_EQ(ids(list), (std::vector<unsigned>{2, 3, 0, 1}));
}

TEST(Lrr, FullRotationIsFair)
{
    auto owned = makeWarps(3);
    LrrScheduler lrr;
    std::vector<unsigned> issued;
    for (int c = 0; c < 6; ++c) {
        auto list = raw(owned);
        lrr.order(list, c);
        lrr.notifyIssued(list.front(), c);
        issued.push_back(list.front()->id());
    }
    EXPECT_EQ(issued, (std::vector<unsigned>{0, 1, 2, 0, 1, 2}));
}

TEST(Lrr, FinishedWarpDropsFromRotation)
{
    auto owned = makeWarps(3);
    LrrScheduler lrr;
    lrr.notifyIssued(owned[2].get(), 0);
    lrr.notifyFinished(owned[2].get());
    std::vector<Warp *> list = {owned[0].get(), owned[1].get()};
    lrr.order(list, 1);
    EXPECT_EQ(ids(list), (std::vector<unsigned>{0, 1}));
}

// ------------------------------------------------------------------ GTO

TEST(Gto, OldestFirstWithoutGreedy)
{
    auto owned = makeWarps(4);
    owned[0]->setAge(30);
    owned[1]->setAge(10);
    owned[2]->setAge(20);
    owned[3]->setAge(40);
    auto list = raw(owned);
    GtoScheduler gto(0);
    gto.order(list, 0);
    EXPECT_EQ(ids(list), (std::vector<unsigned>{1, 2, 0, 3}));
}

TEST(Gto, GreedyKeepsLastIssuedOnTop)
{
    auto owned = makeWarps(4);
    auto list = raw(owned);
    GtoScheduler gto(0);
    gto.notifyIssued(owned[3].get(), 0);
    gto.order(list, 1);
    EXPECT_EQ(list.front()->id(), 3u);
    // The rest stay oldest-first.
    EXPECT_EQ(ids(list), (std::vector<unsigned>{3, 0, 1, 2}));
}

TEST(Gto, RotationShiftsAgePriorityOverTime)
{
    auto owned = makeWarps(4);
    GtoScheduler gto(1000);
    auto list = raw(owned);
    gto.order(list, 500);  // rotation bucket 0
    EXPECT_EQ(list.front()->id(), 0u);
    list = raw(owned);
    gto.order(list, 1500);  // rotation bucket 1
    EXPECT_EQ(list.front()->id(), 1u);
    list = raw(owned);
    gto.order(list, 2500);
    EXPECT_EQ(list.front()->id(), 2u);
}

TEST(Gto, FinishedGreedyWarpForgotten)
{
    auto owned = makeWarps(2);
    GtoScheduler gto(0);
    gto.notifyIssued(owned[1].get(), 0);
    gto.notifyFinished(owned[1].get());
    std::vector<Warp *> list = {owned[0].get()};
    gto.order(list, 1);
    EXPECT_EQ(list.front()->id(), 0u);
}

// ----------------------------------------------------------------- CAWA

TEST(Cawa, PrioritizesHighestCriticality)
{
    auto owned = makeWarps(3);
    // Warp 2 looks critical: many estimated remaining instructions and
    // lots of accumulated stall.
    owned[2]->cawa().estRemaining = 1000;
    owned[2]->cawa().stallCycles = 5000;
    owned[0]->cawa().estRemaining = 10;
    owned[1]->cawa().estRemaining = 10;
    auto list = raw(owned);
    CawaScheduler cawa;
    cawa.order(list, 0);
    EXPECT_EQ(list.front()->id(), 2u);
}

TEST(Cawa, SpinningWarpGainsPriorityAsEstimateGrows)
{
    // The paper's pathology: taken backward branches inflate nInst, so a
    // spinning warp's criticality overtakes a steadily-working warp.
    auto owned = makeWarps(2);
    CawaState &spinner = owned[0]->cawa();
    CawaState &worker = owned[1]->cawa();
    spinner.estRemaining = 50;
    worker.estRemaining = 50;
    spinner.issued = worker.issued = 100;
    spinner.activeCycles = worker.activeCycles = 1000;

    CawaScheduler cawa;
    auto list = raw(owned);
    cawa.order(list, 0);
    // Equal criticality: oldest (warp 0) leads; but now the spinner keeps
    // re-running its loop and its estimate balloons.
    for (int i = 0; i < 100; ++i)
        spinner.estRemaining += 5;  // backward-branch inflation
    list = raw(owned);
    cawa.order(list, 1);
    EXPECT_EQ(list.front()->id(), 0u);
    EXPECT_GT(spinner.criticality(), worker.criticality());
}

TEST(Cawa, CriticalityFormulaMatchesPaper)
{
    CawaState s;
    s.estRemaining = 100;
    s.issued = 50;
    s.activeCycles = 200;  // CPIavg = 4
    s.stallCycles = 30;
    EXPECT_DOUBLE_EQ(s.criticality(), 100 * 4.0 + 30);
}

TEST(Cawa, GreedyComponentKeepsLastIssued)
{
    auto owned = makeWarps(3);
    owned[0]->cawa().estRemaining = 100;
    auto list = raw(owned);
    CawaScheduler cawa;
    cawa.notifyIssued(owned[2].get(), 0);
    cawa.order(list, 1);
    EXPECT_EQ(list.front()->id(), 2u);
}

// ------------------------------------------------------------ TwoLevel

TEST(TwoLevel, ActiveGroupLeadsTheOrder)
{
    auto owned = makeWarps(16);
    TwoLevelScheduler tl(4);
    // Issue from warp 9: group 2 becomes active.
    tl.notifyIssued(owned[9].get(), 0);
    auto list = raw(owned);
    tl.order(list, 1);
    // The first four entries are all of group 2 (ids 8..11).
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(list[i]->id() / 4, 2u) << "position " << i;
    }
    // Round-robin inside the group: warp after 9 leads.
    EXPECT_EQ(list[0]->id(), 10u);
}

TEST(TwoLevel, GroupsFollowInWrapOrder)
{
    auto owned = makeWarps(12);
    TwoLevelScheduler tl(4);
    tl.notifyIssued(owned[8].get(), 0);  // active group = 2 (last)
    auto list = raw(owned);
    tl.order(list, 1);
    // Order of groups: 2, then 0, then 1.
    EXPECT_EQ(list[0]->id() / 4, 2u);
    EXPECT_EQ(list[4]->id() / 4, 0u);
    EXPECT_EQ(list[8]->id() / 4, 1u);
}

TEST(TwoLevel, RunsAKernelCorrectly)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.scheduler = SchedulerKind::TwoLevel;
    Gpu gpu(cfg);
    Addr counter = gpu.malloc(8);
    Program prog = assemble(R"(
.kernel count
.param 1
  ld.param.u64 %r1, [0];
  atom.global.add.b64 %r2, [%r1], 1;
  exit;
)");
    gpu.launch(prog, Dim3{4, 1, 1}, Dim3{256, 1, 1},
               {static_cast<Word>(counter)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 4 * 256);
}

// ---------------------------------------------- pick() against order()

/**
 * Pseudo-random eligibility that keeps the core's contract: finished
 * and barrier-parked warps never pass.
 */
class RandomGate final : public IssueGate {
  public:
    bool
    eligible(Warp &w) const override
    {
        return &w != finished && !w.atBarrier() && pass[w.id()];
    }
    std::vector<bool> pass;
    const Warp *finished = nullptr;
};

/**
 * The core's calling convention: pick() gets the exact ready set as
 * mask.issuable and this gate, a bit test against the same set. A
 * finished warp's position slot is stale, so the done test comes first.
 */
class ReadyBitGate final : public IssueGate {
  public:
    bool
    eligible(Warp &w) const override
    {
        return !w.done() && ((ready >> posOf[w.id()]) & 1) != 0;
    }
    std::uint64_t ready = 0;
    std::vector<std::uint32_t> posOf;
};

/** The arbitration pick() replaces: order(), backed-off warps moved
 *  behind the rest FIFO by ticket, then the first eligible warp. */
Warp *
referencePick(Scheduler &sched, const std::vector<Warp *> &warps,
              Cycle now, bool deprioritize, const IssueGate &gate)
{
    std::vector<Warp *> list = warps;
    sched.order(list, now);
    if (deprioritize) {
        auto mid = std::stable_partition(
            list.begin(), list.end(),
            [](const Warp *w) { return !w->bows().backedOff; });
        std::sort(mid, list.end(), [](const Warp *a, const Warp *b) {
            return a->bows().backoffSeq < b->bows().backoffSeq;
        });
    }
    for (Warp *w : list) {
        if (gate.eligible(*w))
            return w;
    }
    return nullptr;
}

class PickMatchesOrder : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PickMatchesOrder, AllPolicies)
{
    const std::uint32_t seed = GetParam();
    std::mt19937_64 rng(seed);
    auto below = [&rng](unsigned n) {
        return static_cast<unsigned>(rng() % n);
    };
    constexpr unsigned kMaxId = 64;
    // Last-issued warps the greedy rule must pass over: finished,
    // parked at a barrier, or backed off under deprioritization.
    unsigned last_finished = 0, last_at_barrier = 0, last_backed_off = 0;
    for (unsigned trial = 0; trial < 200; ++trial) {
        // One unit's residents: distinct ids in arbitrary order, ages
        // ascending along the vector (the core's residency order).
        const unsigned n = 1 + below(24);
        std::vector<unsigned> ids(kMaxId);
        std::iota(ids.begin(), ids.end(), 0u);
        std::shuffle(ids.begin(), ids.end(), rng);
        std::vector<std::uint64_t> tickets(n);
        std::iota(tickets.begin(), tickets.end(), std::uint64_t{1});
        std::shuffle(tickets.begin(), tickets.end(), rng);
        std::vector<std::unique_ptr<Warp>> owned;
        std::vector<Warp *> warps;
        UnitMask mask;
        mask.valid = true;
        std::uint64_t age = 0;
        for (unsigned k = 0; k < n; ++k) {
            age += 1 + below(3);
            owned.push_back(std::make_unique<Warp>(ids[k], 0, k, age, 1,
                                                   1, kFullMask));
            Warp &w = *owned.back();
            const std::uint64_t bit = std::uint64_t{1} << k;
            if (below(5) == 0)
                w.setAtBarrier(true);
            else
                mask.issuable |= bit;
            if (below(3) == 0) {
                w.bows().backedOff = true;
                w.bows().backoffSeq = tickets[k];
                mask.backedOff |= bit;
            }
            // Small ranges so criticality ties fall back to age.
            CawaState &c = w.cawa();
            c.estRemaining = below(4) * 10.0;
            c.issued = below(3);
            c.activeCycles = below(8);
            c.stallCycles = below(4);
            warps.push_back(&w);
        }
        // A warp that already finished: out of the vector, yet it may
        // still be the last-issued one.
        Warp finished(ids[n], 0, 0, ++age, 1, 1, kFullMask);
        finished.stack().exitLanes(kFullMask);
        RandomGate gate;
        gate.finished = &finished;
        for (unsigned id = 0; id < kMaxId; ++id)
            gate.pass.push_back(below(3) != 0);
        const Cycle now = rng() % 100000;
        const bool deprio = below(2) == 0;

        // The same eligibility as the core hands it over: the ready set
        // in the mask, a bit test as the gate. The finished warp's stale
        // slot points at a position (ready or not) of a live warp.
        ReadyBitGate bit_gate;
        bit_gate.posOf.assign(kMaxId, 0);
        for (unsigned k = 0; k < n; ++k) {
            bit_gate.posOf[ids[k]] = k;
            if (gate.eligible(*warps[k]))
                bit_gate.ready |= std::uint64_t{1} << k;
        }
        bit_gate.posOf[finished.id()] = below(n);
        UnitMask ready_mask = mask;
        ready_mask.issuable = bit_gate.ready;

        std::vector<std::unique_ptr<Scheduler>> policies;
        policies.push_back(std::make_unique<LrrScheduler>());
        policies.push_back(std::make_unique<GtoScheduler>(0));
        policies.push_back(std::make_unique<GtoScheduler>(1 + below(50)));
        policies.push_back(std::make_unique<CawaScheduler>());
        policies.push_back(
            std::make_unique<TwoLevelScheduler>(1u << below(4)));
        for (auto &sched : policies) {
            // Up to two earlier issues: residents or the finished warp
            // (TwoLevel keeps the latter's group active).
            Warp *last = nullptr;
            for (unsigned i = below(3); i > 0; --i) {
                const unsigned k = below(n + 1);
                last = k < n ? warps[k] : &finished;
                sched->notifyIssued(last, now - 1);
            }
            if (last == &finished)
                ++last_finished;
            else if (last && last->atBarrier())
                ++last_at_barrier;
            else if (last && deprio && last->bows().backedOff)
                ++last_backed_off;
            Warp *got = sched->pick(warps, mask, now, deprio, gate);
            if (!got && deprio)
                got = pickBackedOff(warps, mask, gate);
            Warp *want = referencePick(*sched, warps, now, deprio, gate);
            ASSERT_EQ(got, want)
                << sched->name() << ", trial " << trial << ", " << n
                << " warps, deprioritize=" << deprio
                << " (replay with BOWSIM_TEST_SEED=" << seed << ")";
            Warp *got_ready =
                sched->pick(warps, ready_mask, now, deprio, bit_gate);
            if (!got_ready && deprio)
                got_ready = pickBackedOff(warps, ready_mask, bit_gate);
            ASSERT_EQ(got_ready, want)
                << sched->name() << " on the ready set, trial " << trial
                << ", " << n << " warps, deprioritize=" << deprio
                << " (replay with BOWSIM_TEST_SEED=" << seed << ")";
        }
    }
    EXPECT_GT(last_finished, 0u);
    EXPECT_GT(last_at_barrier, 0u);
    EXPECT_GT(last_backed_off, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PickMatchesOrder,
                         ::testing::ValuesIn(testSeeds()));

TEST(SchedulerPick, InvalidMaskPanics)
{
    auto owned = makeWarps(2);
    auto list = raw(owned);
    RandomGate gate;
    gate.pass.assign(2, true);
    const UnitMask invalid;
    GpuConfig cfg;
    for (SchedulerKind kind : {SchedulerKind::LRR, SchedulerKind::GTO,
                               SchedulerKind::CAWA,
                               SchedulerKind::TwoLevel}) {
        cfg.scheduler = kind;
        auto sched = makeScheduler(cfg);
        EXPECT_TRUE(sched->supportsPick());
        EXPECT_THROW(sched->pick(list, invalid, 0, false, gate), PanicError)
            << sched->name();
    }
}

// --------------------------------------------------------- unit limits

/** Runs a one-CTA kernel on a core with @p units scheduler units and
 *  @p warps warp slots. */
void
launchOnCore(unsigned units, unsigned warps)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    cfg.numSchedulersPerCore = units;
    cfg.maxThreadsPerCore = warps * kWarpSize;
    Gpu gpu(cfg);
    Program prog = assemble(R"(
.kernel nop
  exit;
)");
    gpu.launch(prog, Dim3{1, 1, 1}, Dim3{32, 1, 1}, {});
}

TEST(SchedulerUnits, CoreRejectsZeroUnits)
{
    EXPECT_THROW(launchOnCore(0, 48), FatalError);
}

TEST(SchedulerUnits, CoreRejectsMoreThan64WarpsPerUnit)
{
    EXPECT_NO_THROW(launchOnCore(1, 64));
    EXPECT_NO_THROW(launchOnCore(2, 128));
    EXPECT_THROW(launchOnCore(1, 65), FatalError);
    EXPECT_THROW(launchOnCore(2, 129), FatalError);
}

// -------------------------------------------------------------- factory

TEST(SchedulerFactory, CreatesConfiguredKind)
{
    GpuConfig cfg;
    cfg.scheduler = SchedulerKind::LRR;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "LRR");
    cfg.scheduler = SchedulerKind::GTO;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "GTO");
    cfg.scheduler = SchedulerKind::CAWA;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "CAWA");
    cfg.scheduler = SchedulerKind::TwoLevel;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "TwoLevel");
}

}  // namespace
}  // namespace bowsim
