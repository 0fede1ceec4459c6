#ifndef BOWSIM_SIM_SM_CORE_HPP
#define BOWSIM_SIM_SM_CORE_HPP

#include <array>
#include <memory>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/core/bows/backoff.hpp"
#include "src/core/ddos/ddos_unit.hpp"
#include "src/isa/exec.hpp"
#include "src/isa/program.hpp"
#include "src/mem/lock_tracker.hpp"
#include "src/mem/memory_space.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/ldst_unit.hpp"
#include "src/stats/stats.hpp"
#include "src/syncprof/syncprof.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * One streaming multiprocessor: resident CTAs/warps, per-unit warp
 * schedulers with BOWS arbitration (Fig. 8), functional execution at
 * issue, the LD/ST unit, and the DDOS unit hooked into setp/branch
 * execution.
 */

namespace bowsim {

/**
 * State shared by all SMs of one device during one kernel launch. On a
 * multi-device system (GpuConfig::numDevices > 1) each device owns one
 * LaunchState: its own CTA dispatch window [nextCta, ctaEnd), warp age
 * counter, statistics shard and memory system — prog/grid/block/params
 * and the functional MemorySpace are shared across devices.
 */
struct LaunchState {
    const Program *prog = nullptr;
    Dim3 grid;
    Dim3 block;
    std::vector<Word> params;
    MemorySpace *mem = nullptr;
    MemorySystem *memsys = nullptr;
    SpinDetect spinDetect = SpinDetect::Ddos;
    /**
     * System-wide lock tracker shared by every device of a launch. Lock
     * words are functional state in the shared MemorySpace, so ownership
     * must be tracked system-wide; warpKeyBase keeps the owner keys
     * globally unique.
     */
    LockTracker *tracker = nullptr;
    KernelStats stats;
    /** Event sink for this launch; the default Tracer is the null sink. */
    trace::Tracer trace;
    /** Sync-contention profiler handle (docs/SYNC.md); default null. The
     *  registry, like the system lock tracker, is shared by all devices. */
    syncprof::SyncProf sync;
    /** This device's CTA dispatch window: the next CTA awaiting an SM
     *  and one past the last (GpuSystem::launch gives each device a
     *  contiguous chunk; one device gets [0, grid)). */
    unsigned nextCta = 0;
    unsigned ctaEnd = 0;
    /** Monotonic warp age counter (GTO's age ordering), device-local. */
    std::uint64_t warpAgeCounter = 0;
    /** This device's id (trace events, %smid stays SM-local). */
    unsigned deviceId = 0;
    /** Folded into lock-owner warp keys so they stay unique across
     *  devices' independent age counters (deviceId << 48). */
    std::uint64_t warpKeyBase = 0;

    /** Per-PC sync-annotation flags, bit-packed from Program::sync once
     *  at launch so the issue path avoids std::set lookups. */
    static constexpr std::uint8_t kPcSyncRegion = 1;
    static constexpr std::uint8_t kPcWaitCheck = 2;
    static constexpr std::uint8_t kPcLockAcquire = 4;
    static constexpr std::uint8_t kPcSpinBranch = 8;
    std::vector<std::uint8_t> pcFlags;

    /** Builds pcFlags from prog's annotations (call after prog is set). */
    void
    buildPcFlags()
    {
        pcFlags.assign(prog->code.size(), 0);
        auto mark = [&](const std::set<Pc> &pcs, std::uint8_t bit) {
            for (Pc pc : pcs) {
                if (pc < pcFlags.size())
                    pcFlags[pc] |= bit;
            }
        };
        mark(prog->sync.syncRegion, kPcSyncRegion);
        mark(prog->sync.waitChecks, kPcWaitCheck);
        mark(prog->sync.lockAcquires, kPcLockAcquire);
        mark(prog->sync.spinBranches, kPcSpinBranch);
    }
};

/**
 * CTA residency limit for one SM: the minimum over the CTA cap and the
 * thread, register, shared-memory and warp-slot budgets. Shared by
 * SmCore and the functional executor so both modes dispatch CTAs with
 * identical occupancy. Fatal when the kernel does not fit at all.
 */
unsigned maxResidentCtasFor(const GpuConfig &cfg, const Program &prog,
                            unsigned threads_per_cta);

/**
 * The data path of one non-control instruction (ld, st, atom, setp,
 * selp, clock and the ALU opcodes) on the lanes in @p exec, shared by
 * SmCore and the functional executor so both modes compute every lane
 * result through one definition. Updates the launch.stats counters
 * that depend on lane results (CAS outcomes at lock acquires, wait-exit
 * outcomes at wait checks) and stores each memory lane's byte address
 * in @p addrs for the caller's timing model. Control flow, DDOS/BOWS
 * hooks, scoreboard, pipeline timing and issue accounting stay with
 * the caller.
 *
 * @param shared the issuing warp's CTA shared memory
 * @param clock  the value `clock` reads: the cycle in cycle mode, the
 *               instruction pseudo-clock in functional mode; also the
 *               time stamp of sync-profiler events
 * @param sync   sync-profiler handle (null when not profiling)
 */
void executeDataPath(LaunchState &launch, Warp &w, const Instruction &inst,
                     LaneMask exec, std::vector<std::uint8_t> &shared,
                     const exec::ThreadCtx &ctx, Cycle clock,
                     syncprof::SyncProf sync,
                     std::array<Addr, kWarpSize> &addrs);

class SmCore {
  public:
    /** Statistics accumulate into launch.stats. */
    SmCore(unsigned id, const GpuConfig &cfg, LaunchState &launch);

    /**
     * Advances the SM by one cycle: CTA dispatch, writebacks, the BOWS
     * window, then one issue per scheduler unit, with global-memory and
     * memory-system side effects applied at issue. True when any unit
     * issued.
     */
    bool cycle(Cycle now);

    /** True while CTAs are resident or still waiting for dispatch. */
    bool busy() const;

    /**
     * Next-event horizon (docs/PERF.md): assuming cycle(now) just ran
     * and issued nothing, the earliest cycle > now at which this SM can
     * make progress — the minimum over pending ALU writebacks, LD/ST
     * events, expiring back-off deadlines, and CTA-dispatch
     * availability; kNeverCycle when none is pending (deadlock). Being
     * early (over-conservative) only shrinks a skip; reporting later
     * than a real event would desynchronize the simulation, so every
     * state change inside (now, horizon) must trace back to one of the
     * enumerated sources.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /**
     * Replays the idle gap [from, to] in one step: the adaptive-window
     * boundaries and delay-limit sum, then accountCycles() with the gap
     * length (each warp's blocking cause is frozen through the gap).
     * Callable only when no unit on this SM can issue anywhere in the
     * gap (to < nextWorkCycle).
     */
    void fastForward(Cycle from, Cycle to);

    const DdosUnit &ddos() const { return *ddos_; }
    const BackoffUnit &backoff() const { return backoff_; }
    const LdstUnit &ldst() const { return ldst_; }
    unsigned id() const { return id_; }
    /** Owning device (multi-device stat/idle attribution). */
    unsigned device() const { return launch_.deviceId; }

    // --- metrics-sampler gauges (SM-private, settled at the end of
    // --- each cycle; see src/metrics/sampler.cpp) ---------------------
    /** Resident unfinished warps right now. */
    std::size_t residentWarps() const { return resident_.size(); }
    /** Resident warps passing every issue gate this cycle (the
     *  popcount of every unit's readyMask()). */
    unsigned eligibleWarpCount() const;
    /** Resident warps the spin-detection mechanism flags as spinning. */
    unsigned spinningWarpCount() const;
    /** Instructions issued by this SM so far (always collected). */
    std::uint64_t issuedInstructions() const { return issuedInstructions_; }

  private:
    struct Cta {
        unsigned id = 0;
        std::vector<std::unique_ptr<Warp>> warps;
        std::vector<std::uint8_t> shared;
        unsigned liveWarps = 0;
        unsigned arrivedAtBarrier = 0;
        bool valid = false;
    };

    /** ALU-pipeline writeback event (bucketed by completion cycle). */
    struct WbEvent {
        Warp *warp;
        const Instruction *inst;
    };

    void tryLaunchCtas();
    void retireFinishedCtas();
    void checkBarrier(Cta &cta);
    void issue(Warp &w, Cycle now);
    bool isSib(Pc pc) const;
    /** Routes a BOWS/DDOS transition to the sync profiler. */
    void noteSyncTransition(trace::EventKind kind, Warp &w, Cycle now);

    /**
     * The first blocking condition of a resident, not-done warp at now_,
     * in StallCause order; Arbitration when every gate passes. A warp's
     * readyMask() bit is set exactly when this returns Arbitration (the
     * ready-set oracle checks it whenever stall accounting is on).
     */
    trace::StallCause
    classifyStall(Warp &w) const
    {
        if (w.atBarrier())
            return trace::StallCause::Barrier;
        if (!backoff_.mayIssue(w, now_))
            return trace::StallCause::Backoff;
        const Instruction &inst = fetch(w.stack().pc());
        if (!w.scoreboard().canIssue(inst))
            return trace::StallCause::Scoreboard;
        if (inst.isMemory() && inst.space != MemSpace::Param &&
            !ldst_.canAccept()) {
            return trace::StallCause::PipelineBusy;
        }
        return trace::StallCause::Arbitration;
    }
    /**
     * The end-of-cycle accounting of @p n identical cycles ending at
     * @p now: smCycles, CAWA active/stall counters, the stall table and
     * the resident, backed-off and spinning warp-cycle sums. A live
     * cycle passes 1, an idle gap its length.
     */
    void accountCycles(Cycle now, std::uint64_t n);
    /** Stall attribution of @p n cycles + unit-level stall events. */
    void recordStallCycles(Cycle now, std::uint64_t n);
    /**
     * Unit @p u's ready set at @p now (bit k = position k): the warps
     * classifyStall() puts in Arbitration. The stored masks cover the
     * barrier and scoreboard gates; the LD/ST port and back-off
     * deadlines are tested here, against the live unit state.
     */
    std::uint64_t readyMask(unsigned u, Cycle now) const;
    /** The ready-set oracle: panics when a warp of unit @p u has a
     *  @p ready bit that disagrees with classifyStall(). */
    void checkReadySet(unsigned u, std::uint64_t ready) const;
    /** Recomputes one unit's masks and positions from its vector. */
    void rebuildUnitMask(unsigned u);
    /** Re-derives a resident warp's bit in each of its unit's masks
     *  (at its unitPosOf_ position) from its current state. */
    void refreshWarpMask(const Warp &w);

    /** Hot-path instruction fetch. Launch-validated programs always have
     *  in-range PCs; anything else falls back to the checked accessor so
     *  malformed hand-built programs fail exactly as before. */
    const Instruction &
    fetch(Pc pc) const
    {
        return pc < codeSize_ ? code_[pc] : launch_.prog->at(pc);
    }

    void onWarpFinished(Warp &w);

    unsigned id_;
    const GpuConfig &cfg_;
    LaunchState &launch_;
    /** The launch-wide statistics aggregate (launch.stats). */
    KernelStats &stats_;
    LdstUnit ldst_;
    std::vector<std::unique_ptr<Scheduler>> schedulers_;
    std::unique_ptr<DdosUnit> ddos_;
    BackoffUnit backoff_;

    std::vector<Cta> ctas_;
    /** Resident unfinished warps (refreshed as CTAs come and go). */
    std::vector<Warp *> resident_;
    /** resident_ filtered by scheduler unit, maintained incrementally. */
    std::vector<std::vector<Warp *>> unitResident_;

    /**
     * Per-warp bitmasks mirroring unitResident_ (bit k = position k of
     * unit u's vector): not-at-barrier, BOWS backed-off, next
     * instruction passes the scoreboard, and next instruction needs the
     * LD/ST port. Rewritten at warp launch/finish, after each issue,
     * at barrier exit and at every scoreboard release (docs/PERF.md,
     * "Ready set"). A unit holds at most kMaxWarpsPerUnit warps.
     */
    std::vector<std::uint64_t> unitIssuable_;
    std::vector<std::uint64_t> unitBackedOff_;
    std::vector<std::uint64_t> unitSbReady_;
    std::vector<std::uint64_t> unitMemNext_;
    /** Warp slot -> position inside its unit's resident vector. */
    std::vector<std::uint32_t> unitPosOf_;

    /**
     * Calendar queue for ALU writebacks: ring of per-cycle buckets
     * indexed by (cycle % size). ALU latencies are small and bounded,
     * so the ring replaces a per-cycle priority_queue with O(1) push
     * and a bulk pop; within one bucket the vector preserves issue
     * order, matching the old (when, seq) heap order exactly.
     */
    std::vector<std::vector<WbEvent>> wbRing_;
    unsigned wbRingSize_ = 0;
    std::uint64_t wbPending_ = 0;
    std::vector<MemCompletion> memCompletions_;

    unsigned maxWarps_;
    unsigned warpsPerCta_ = 0;
    unsigned maxResidentCtas_ = 0;
    /** Launch geometry cached out of the per-lane/ per-cycle paths. */
    unsigned blockThreads_ = 0;
    unsigned gridCtas_ = 0;
    /** Instruction stream cached for the unchecked fetch() fast path. */
    const Instruction *code_ = nullptr;
    Pc codeSize_ = 0;
    /** Occupied CTA slots (busy() and dispatch gating). */
    unsigned validCtas_ = 0;
    /** Valid CTAs with no live warps, awaiting drain + retirement. */
    unsigned drainedCtas_ = 0;
    /** Current cycle, for classifyStall() and the metrics gauges. */
    Cycle now_ = 0;
    /** Lifetime issued-instruction count (metrics gauge source). */
    std::uint64_t issuedInstructions_ = 0;
    /** Per-warp active/stall counters only feed CAWA's criticality. */
    bool cawaAccounting_ = false;
    /** Launch-wide event sink handle (null sink unless a trace is on). */
    trace::Tracer tracer_;
    /** Per-cycle stall attribution into stats.stallCounts, and the
     *  ready-set oracle (gated). */
    bool stallAccounting_ = false;
    /** Per-cycle spinning-warp attribution (GpuConfig::collectSpinCycles). */
    bool spinAccounting_ = false;
    /** Launch-wide sync-profiler handle (null unless --sync-report or a
     *  litmus evidence pass attached a registry). */
    syncprof::SyncProf sync_;
    /** Cached sync_.enabled() so the issue-path branch sites pay one
     *  bool test, mirroring stallAccounting_. */
    bool syncOn_ = false;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_SM_CORE_HPP
