#include "src/sim/sm_core.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/log.hpp"
#include "src/isa/exec.hpp"

namespace bowsim {

namespace {

unsigned
popcount(LaneMask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

unsigned
firstLane(LaneMask m)
{
    return static_cast<unsigned>(std::countr_zero(m));
}

/** Source operand @p op of @p w at @p lane (a missing operand panics). */
Word
readOperand(const Warp &w, const Operand &op, const exec::ThreadCtx &ctx,
            unsigned lane)
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return w.regs().read(lane, op.index);
      case Operand::Kind::Imm:
        return op.imm;
      case Operand::Kind::Pred:
        return w.regs().readPred(lane, op.index) ? 1 : 0;
      case Operand::Kind::Special:
        return exec::readSpecial(static_cast<SpecialReg>(op.index), ctx,
                                 lane);
      case Operand::Kind::None:
        panic("readOperand on a missing operand");
    }
    return 0;
}

/**
 * A source operand resolved once per instruction: register sources
 * become row pointers and immediates constants; only predicate and
 * special-register sources keep a per-lane read. A missing operand
 * reads as 0.
 */
struct SrcRef {
    const Word *row = nullptr;
    const Operand *op = nullptr;
    Word imm = 0;
};

SrcRef
resolve(const Warp &w, const Operand &o)
{
    SrcRef s;
    switch (o.kind) {
      case Operand::Kind::Reg:
        s.row = w.regs().row(o.index);
        break;
      case Operand::Kind::Imm:
        s.imm = o.imm;
        break;
      case Operand::Kind::None:
        break;
      default:
        s.op = &o;
        break;
    }
    return s;
}

/**
 * The gate the core hands to pick(): a bit test against one unit's
 * ready set. The done test keeps a finished last-issued warp, whose
 * position slot is stale, from reading another warp's bit.
 */
class ReadyGate final : public IssueGate {
  public:
    ReadyGate(std::uint64_t ready, const std::uint32_t *pos_of)
        : ready_(ready), posOf_(pos_of)
    {
    }

    bool
    eligible(Warp &w) const override
    {
        return !w.done() && ((ready_ >> posOf_[w.id()]) & 1) != 0;
    }

  private:
    std::uint64_t ready_;
    const std::uint32_t *posOf_;
};

}  // namespace

unsigned
maxResidentCtasFor(const GpuConfig &cfg, const Program &prog,
                   unsigned threads_per_cta)
{
    if (threads_per_cta == 0)
        fatal("kernel launch with an empty block");
    const unsigned max_warps = cfg.maxWarpsPerCore();
    const unsigned warps_per_cta =
        (threads_per_cta + kWarpSize - 1) / kWarpSize;
    unsigned by_threads = cfg.maxThreadsPerCore / threads_per_cta;
    unsigned regs_per_cta = prog.numRegs * threads_per_cta;
    unsigned by_regs = regs_per_cta == 0
                           ? cfg.maxCtasPerCore
                           : cfg.numRegsPerCore / regs_per_cta;
    unsigned by_shared = prog.sharedBytes == 0
                             ? cfg.maxCtasPerCore
                             : cfg.sharedMemPerCore / prog.sharedBytes;
    unsigned by_warps = max_warps / warps_per_cta;
    unsigned max_ctas = std::min({cfg.maxCtasPerCore, by_threads, by_regs,
                                  by_shared, by_warps});
    if (max_ctas == 0)
        simFatal("kernel '", prog.name, "' does not fit on an SM (",
                 threads_per_cta, " threads/CTA)");
    return max_ctas;
}

SmCore::SmCore(unsigned id, const GpuConfig &cfg, LaunchState &launch)
    : id_(id), cfg_(cfg), launch_(launch), stats_(launch.stats),
      ldst_(cfg, id, *launch.memsys, stats_),
      backoff_(cfg.bows), maxWarps_(cfg.maxWarpsPerCore())
{
    // Warp slots are distributed round-robin over the units, so unit u
    // holds at most ceil(maxWarps_/units) warps, one UnitMask bit each.
    const unsigned units = cfg.numSchedulersPerCore;
    if (units == 0)
        fatal("numSchedulersPerCore must be at least 1");
    if ((maxWarps_ + units - 1) / units > kMaxWarpsPerUnit) {
        fatal("a scheduler unit may hold at most ", kMaxWarpsPerUnit,
              " warps (", maxWarps_, " warps over ", units, " units)");
    }
    for (unsigned s = 0; s < units; ++s)
        schedulers_.push_back(makeScheduler(cfg));
    unitResident_.resize(units);
    unitIssuable_.assign(units, 0);
    unitBackedOff_.assign(units, 0);
    unitSbReady_.assign(units, 0);
    unitMemNext_.assign(units, 0);
    unitPosOf_.assign(maxWarps_, 0);
    ddos_ = std::make_unique<DdosUnit>(cfg.ddos, maxWarps_);

    // ALU latencies are bounded, so writebacks at most max-latency
    // cycles ahead fit in a ring of per-cycle buckets.
    wbRingSize_ =
        std::max({cfg.aluLatency, cfg.mulDivLatency, 1u}) + 1;
    wbRing_.resize(wbRingSize_);

    blockThreads_ = launch_.block.count();
    gridCtas_ = launch_.grid.count();
    code_ = launch_.prog->code.data();
    codeSize_ = static_cast<Pc>(launch_.prog->code.size());
    if (launch_.pcFlags.size() != launch_.prog->code.size())
        launch_.buildPcFlags();  // idempotent; cores are built serially
    cawaAccounting_ = cfg.scheduler == SchedulerKind::CAWA;
    spinAccounting_ = cfg.collectSpinCycles;
    // Sync profiling mirrors tracing: a launch-wide handle, one cached
    // bool on the issue-path branch sites.
    sync_ = launch_.sync;
    syncOn_ = sync_.enabled();

    // Tracing and stall attribution ride the same launch-wide handle.
    // Sizing the stall table here (cores are built serially) keeps
    // Gpu::launch() agnostic and covers direct SmCore construction.
    tracer_ = launch_.trace;
    stallAccounting_ = tracer_.enabled() || cfg.collectStallBreakdown;
    if (stallAccounting_) {
        KernelStats &st = stats_;
        st.stallWarpsPerSm = maxWarps_;
        std::size_t need = static_cast<std::size_t>(cfg.numCores) *
                           maxWarps_ * trace::kNumStallCauses;
        if (st.stallCounts.size() < need)
            st.stallCounts.resize(need, 0);
        // Per-scheduler-unit issue distribution (--profile) rides the
        // same gate: one increment per issue, off the default hot path.
        st.unitsPerSm = static_cast<unsigned>(schedulers_.size());
        std::size_t unit_need = static_cast<std::size_t>(cfg.numCores) *
                                schedulers_.size();
        if (st.unitIssues.size() < unit_need)
            st.unitIssues.resize(unit_need, 0);
    }
    // Peak residency is one max per CTA launch — cheap enough to keep
    // always-on (profile reports and metrics need it unconditionally).
    if (stats_.peakResidentPerSm.size() < cfg.numCores)
        stats_.peakResidentPerSm.resize(cfg.numCores, 0);
    ldst_.setTrace(tracer_);
    ddos_->setTrace(tracer_, id_);
    backoff_.setTrace(tracer_, id_);

    const Program &prog = *launch_.prog;
    unsigned threads_per_cta = blockThreads_;
    warpsPerCta_ = (threads_per_cta + kWarpSize - 1) / kWarpSize;
    maxResidentCtas_ = maxResidentCtasFor(cfg, prog, threads_per_cta);
    ctas_.resize(maxResidentCtas_);
}

bool
SmCore::busy() const
{
    // CTAs are handed out by the device's dispatcher; this SM stays busy
    // while work remains so it can pick CTAs up as slots free.
    return validCtas_ != 0 || launch_.nextCta < launch_.ctaEnd;
}

void
SmCore::tryLaunchCtas()
{
    if (launch_.nextCta >= launch_.ctaEnd || validCtas_ == maxResidentCtas_)
        return;
    const Program &prog = *launch_.prog;
    for (Cta &slot : ctas_) {
        if (slot.valid)
            continue;
        if (launch_.nextCta >= launch_.ctaEnd)
            return;
        unsigned cta_id = launch_.nextCta++;
        slot.valid = true;
        ++validCtas_;
        slot.id = cta_id;
        slot.shared.assign(prog.sharedBytes, 0);
        slot.warps.clear();
        slot.arrivedAtBarrier = 0;

        unsigned threads = blockThreads_;
        unsigned cta_index =
            static_cast<unsigned>(&slot - ctas_.data());
        const unsigned units = static_cast<unsigned>(schedulers_.size());
        for (unsigned wi = 0; wi < warpsPerCta_; ++wi) {
            unsigned lanes = std::min(kWarpSize, threads - wi * kWarpSize);
            LaneMask mask = lanes == kWarpSize
                                ? kFullMask
                                : ((LaneMask{1} << lanes) - 1);
            unsigned warp_slot = cta_index * warpsPerCta_ + wi;
            auto warp = std::make_unique<Warp>(
                warp_slot, cta_id, wi, launch_.warpAgeCounter++,
                prog.numRegs, prog.numPreds, mask);
            ddos_->resetWarp(warp_slot);
            resident_.push_back(warp.get());
            const unsigned unit_id = warp_slot % units;
            auto &unit = unitResident_[unit_id];
            unitPosOf_[warp_slot] = static_cast<std::uint32_t>(unit.size());
            refreshWarpMask(*warp);
            unit.push_back(warp.get());
            slot.warps.push_back(std::move(warp));
        }
        slot.liveWarps = warpsPerCta_;
        stats_.peakResidentPerSm[id_] = std::max<std::uint64_t>(
            stats_.peakResidentPerSm[id_], resident_.size());
    }
}

void
SmCore::retireFinishedCtas()
{
    if (drainedCtas_ == 0)
        return;
    for (Cta &cta : ctas_) {
        if (!cta.valid || cta.liveWarps != 0)
            continue;
        bool drained = true;
        for (const auto &w : cta.warps) {
            if (!w->scoreboard().idle() || w->ldstOutstanding() != 0) {
                drained = false;
                break;
            }
        }
        if (!drained)
            continue;
        for (const auto &w : cta.warps) {
            for (auto &sched : schedulers_)
                sched->notifyFinished(w.get());
        }
        cta.warps.clear();
        cta.valid = false;
        --validCtas_;
        --drainedCtas_;
    }
}

void
SmCore::checkBarrier(Cta &cta)
{
    if (cta.liveWarps == 0 || cta.arrivedAtBarrier < cta.liveWarps)
        return;
    for (auto &w : cta.warps) {
        if (!w->done()) {
            w->setAtBarrier(false);
            refreshWarpMask(*w);
            tracer_.emit(now_, id_, static_cast<std::int32_t>(w->id()),
                         trace::EventKind::BarrierExit);
        }
    }
    cta.arrivedAtBarrier = 0;
}

bool
SmCore::isSib(Pc pc) const
{
    switch (launch_.spinDetect) {
      case SpinDetect::None:
        return false;
      case SpinDetect::Oracle:
        return (launch_.pcFlags[pc] & LaunchState::kPcSpinBranch) != 0;
      case SpinDetect::Ddos:
        return ddos_->isSib(pc);
    }
    return false;
}

std::uint64_t
SmCore::readyMask(unsigned u, Cycle now) const
{
    std::uint64_t ready = unitIssuable_[u] & unitSbReady_[u];
    if (!ldst_.canAccept())
        ready &= ~unitMemNext_[u];
    // Only backed-off warps carry a deadline.
    for (std::uint64_t boff = ready & unitBackedOff_[u]; boff != 0;
         boff &= boff - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(boff));
        if (!backoff_.mayIssue(*unitResident_[u][k], now))
            ready &= ~(std::uint64_t{1} << k);
    }
    return ready;
}

void
SmCore::checkReadySet(unsigned u, std::uint64_t ready) const
{
    const auto &unit = unitResident_[u];
    for (std::size_t k = 0; k < unit.size(); ++k) {
        Warp &w = *unit[k];
        const bool bit = ((ready >> k) & 1) != 0;
        const trace::StallCause cause = classifyStall(w);
        if (bit != (cause == trace::StallCause::Arbitration)) {
            panic("ready set out of step at cycle ", now_, ": SM ", id_,
                  " unit ", u, " warp ", w.id(), " at PC ", w.stack().pc(),
                  " has ready bit ", bit ? 1 : 0, " but classifies as ",
                  trace::toString(cause));
        }
    }
}

unsigned
SmCore::eligibleWarpCount() const
{
    unsigned n = 0;
    for (unsigned u = 0; u < unitResident_.size(); ++u)
        n += static_cast<unsigned>(std::popcount(readyMask(u, now_)));
    return n;
}

unsigned
SmCore::spinningWarpCount() const
{
    unsigned n = 0;
    for (const Warp *w : resident_)
        n += ddos_->isSpinning(w->id()) ? 1 : 0;
    return n;
}

void
executeDataPath(LaunchState &launch, Warp &w, const Instruction &inst,
                LaneMask exec, std::vector<std::uint8_t> &shared,
                const exec::ThreadCtx &ctx, Cycle clock,
                syncprof::SyncProf sync, std::array<Addr, kWarpSize> &addrs)
{
    KernelStats &st = launch.stats;
    const std::uint8_t flags = launch.pcFlags[w.stack().pc()];
    const SrcRef a = resolve(w, inst.src[0]);
    const SrcRef b = resolve(w, inst.src[1]);
    const SrcRef c = resolve(w, inst.src[2]);
    auto get = [&](const SrcRef &s, unsigned lane) -> Word {
        if (s.row)
            return s.row[lane];
        if (s.op)
            return readOperand(w, *s.op, ctx, lane);
        return s.imm;
    };
    // Memory opcodes address src[0] + offset; the address is also
    // recorded for the caller's LD/ST timing model (ld.param's is
    // unused: it has ALU timing).
    auto address = [&](unsigned lane) {
        const Addr addr = static_cast<Addr>(get(a, lane) + inst.memOffset);
        addrs[lane] = addr;
        return addr;
    };
    auto sharedAt = [&](Addr addr) {
        if (addr + inst.size > shared.size())
            simFatal("shared-memory access out of bounds in '",
                     launch.prog->name, "' (addr ", addr, ")");
        return shared.data() + addr;
    };

    switch (inst.op) {
      case Opcode::Ld: {
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            if (inst.space == MemSpace::Param) {
                // Constant access: params are 8-byte slots.
                const unsigned index =
                    static_cast<unsigned>(address(lane) / 8);
                if (index >= launch.params.size())
                    simFatal("ld.param index ", index, " out of range in '",
                             launch.prog->name, "'");
                dst[lane] = launch.params[index];
            } else if (inst.space == MemSpace::Shared) {
                Word v = 0;
                std::memcpy(&v, sharedAt(address(lane)), inst.size);
                if (inst.size == 4)
                    v = static_cast<Word>(static_cast<std::int32_t>(v));
                dst[lane] = v;
            } else {
                dst[lane] = launch.mem->read(address(lane), inst.size);
            }
        }
        break;
      }
      case Opcode::St:
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            const Addr addr = address(lane);
            const Word v = get(b, lane);
            if (inst.space == MemSpace::Shared) {
                std::memcpy(sharedAt(addr), &v, inst.size);
            } else {
                launch.mem->write(addr, v, inst.size);
                launch.tracker->onWrite(addr, v);
                sync.onWrite(addr, clock);
            }
        }
        break;
      case Opcode::Atom: {
        const bool acquire = (flags & LaunchState::kPcLockAcquire) != 0;
        // Warp key: the device-wide age offset by the device's key base
        // — globally unique across devices and nonzero.
        const std::uint64_t warp_key = launch.warpKeyBase + w.age() + 1;
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            const Addr addr = address(lane);
            const Word operand = get(b, lane);
            const Word desired =
                inst.atom == AtomOp::Cas ? get(c, lane) : 0;
            const exec::AtomicResult r = exec::applyAtomicLane(
                *launch.mem, *launch.tracker, inst, addr, operand, desired,
                warp_key);
            if (sync.enabled()) {
                // Release = an exchange (the TAS-family unlock) or a
                // successful CAS that stored the free sentinel 0;
                // plain-store unlocks reach the profiler through the
                // St path's onWrite hook instead.
                const bool failed = r.isCas && r.cas != CasOutcome::Success;
                const bool releases =
                    inst.atom == AtomOp::Exch ||
                    (r.isCas && r.cas == CasOutcome::Success &&
                     desired == 0);
                sync.onAtomic(addr, warp_key, clock, r.isCas, failed,
                              acquire, releases);
            }
            if (r.isCas && acquire) {
                switch (r.cas) {
                  case CasOutcome::Success:
                    ++st.outcomes.lockSuccess;
                    break;
                  case CasOutcome::InterWarpFail:
                    ++st.outcomes.interWarpFail;
                    break;
                  case CasOutcome::IntraWarpFail:
                    ++st.outcomes.intraWarpFail;
                    break;
                }
            }
            if (inst.dst.valid())
                w.regs().write(lane, inst.dst.index, r.old);
        }
        break;
      }
      case Opcode::Setp: {
        const bool is_wait_check = (flags & LaunchState::kPcWaitCheck) != 0;
        LaneMask &pred = w.regs().predRow(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            const bool r = exec::compare(inst.cmp, get(a, lane), get(b, lane));
            const LaneMask bit = LaneMask{1} << lane;
            pred = r ? (pred | bit) : (pred & ~bit);
            if (is_wait_check) {
                if (r)
                    ++st.outcomes.waitExitSuccess;
                else
                    ++st.outcomes.waitExitFail;
            }
        }
        break;
      }
      case Opcode::Selp: {
        const LaneMask pbits = w.regs().predBits(inst.src[2].index);
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = ((pbits >> lane) & 1) ? get(a, lane) : get(b, lane);
        }
        break;
      }
      case Opcode::Clock: {
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1)
            dst[firstLane(rest)] = static_cast<Word>(clock);
        break;
      }
      default: {
        Word *dst = w.regs().row(inst.dst.index);
        for (LaneMask rest = exec; rest != 0; rest &= rest - 1) {
            const unsigned lane = firstLane(rest);
            dst[lane] = exec::aluCompute(inst, get(a, lane), get(b, lane),
                                         get(c, lane));
        }
        break;
      }
    }
}

void
SmCore::issue(Warp &w, Cycle now)
{
    const Pc pc = w.stack().pc();
    const Instruction &inst = fetch(pc);
    const LaneMask active = w.stack().activeMask();

    LaneMask exec = active;
    if (inst.guard >= 0) {
        LaneMask pm = w.regs().predMask(inst.guard, active);
        exec = inst.guardNegate ? (active & ~pm) : pm;
    }

    if (tracer_.enabled()) {
        const std::int32_t wid = static_cast<std::int32_t>(w.id());
        tracer_.emit(now, id_, wid, trace::EventKind::Fetch, pc);
        tracer_.emit(now, id_, wid, trace::EventKind::Issue, pc,
                     static_cast<std::uint64_t>(inst.op) |
                         (static_cast<std::uint64_t>(popcount(exec)) << 8));
    }

    // --- accounting ----------------------------------------------------
    KernelStats &st = stats_;
    ++st.warpInstructions;
    ++issuedInstructions_;
    unsigned lanes = popcount(active);
    st.threadInstructions += lanes;
    st.activeLaneSum += lanes;
    const bool sync_pc =
        (launch_.pcFlags[pc] & LaunchState::kPcSyncRegion) != 0;
    if (sync_pc)
        st.syncThreadInstructions += lanes;

    ++st.energy.warpInstructions;
    st.energy.laneAluOps += popcount(exec);
    unsigned reg_srcs = 0;
    for (const Operand &s : inst.src)
        reg_srcs += s.isReg() ? 1 : 0;
    st.energy.rfReadLanes += reg_srcs * lanes;
    if (inst.dst.valid())
        st.energy.rfWriteLanes += lanes;

    // --- BOWS / CAWA state transitions at issue ---------------------------
    backoff_.onIssue(w, now);
    CawaState &cawa = w.cawa();
    ++cawa.issued;
    if (cawa.estRemaining > 0)
        cawa.estRemaining -= 1.0;
    w.setLastIssueCycle(now);

    bool sib_executed = false;

    // --- execute -----------------------------------------------------------
    switch (inst.op) {
      case Opcode::Bra: {
        const LaneMask taken = exec;
        const bool backward = inst.target <= pc;
        if (backward && taken != 0) {
            // The warp will re-run the loop body: grow CAWA's remaining-
            // work estimate (this is the spin-prioritization pathology).
            cawa.estRemaining += static_cast<double>(pc - inst.target + 1);
            if (!tracer_.enabled() && !syncOn_) {
                ddos_->onBackwardBranch(w.id(), pc, now);
            } else {
                // Label newly confirmed SIBs against the kernel's
                // ground-truth annotations for the detection stream, and
                // cross-attribute the confirmation to the sync address
                // whose failed CAS provoked the spin.
                const bool was_sib = ddos_->isSib(pc);
                ddos_->onBackwardBranch(w.id(), pc, now);
                if (!was_sib && ddos_->isSib(pc)) {
                    const bool truth =
                        (launch_.pcFlags[pc] &
                         LaunchState::kPcSpinBranch) != 0;
                    tracer_.emit(now, id_,
                                 static_cast<std::int32_t>(w.id()),
                                 truth ? trace::EventKind::DetectTrue
                                       : trace::EventKind::DetectFalse,
                                 pc);
                    if (syncOn_) {
                        noteSyncTransition(trace::EventKind::SibConfirm,
                                           w, now);
                    }
                }
            }
        }
        if (backward && taken != 0 && isSib(pc)) {
            sib_executed = true;
            ++st.sibInstructions;
            if (!syncOn_) {
                backoff_.onSpinBranch(w, now);
            } else {
                // Catch the not-backed-off -> backed-off edge so the
                // profiler can charge the back-off to its sync address.
                const bool was_off = w.bows().backedOff;
                backoff_.onSpinBranch(w, now);
                if (!was_off && w.bows().backedOff) {
                    noteSyncTransition(trace::EventKind::BackoffEnter, w,
                                       now);
                }
            }
        }
        w.stack().branch(inst, taken);
        break;
      }
      case Opcode::Exit:
        w.stack().exitLanes(exec);
        break;
      case Opcode::Bar: {
        w.stack().advance();
        Cta &cta = ctas_.at(w.id() / warpsPerCta_);
        w.setAtBarrier(true);
        ++cta.arrivedAtBarrier;
        tracer_.emit(now, id_, static_cast<std::int32_t>(w.id()),
                     trace::EventKind::BarrierEnter, pc);
        checkBarrier(cta);
        break;
      }
      case Opcode::Nop:
      case Opcode::Membar:
        // Fences are a timing no-op here: functional memory updates are
        // already globally visible at issue (documented approximation).
        w.stack().advance();
        break;
      default: {
        const exec::ThreadCtx ctx{w.warpInCta(), w.cta(), blockThreads_,
                                  gridCtas_, id_};
        // DDOS profiles the first active thread of the warp at every
        // setp, before the setp itself executes.
        if (inst.op == Opcode::Setp && active != 0) {
            const unsigned lane = firstLane(active);
            ddos_->onSetp(w.id(), pc, readOperand(w, inst.src[0], ctx, lane),
                          readOperand(w, inst.src[1], ctx, lane), now);
        }
        // Only shared-space accesses touch the CTA's shared memory, so
        // the slot lookup (a division) is skipped for everything else.
        const bool shared_op = inst.space == MemSpace::Shared;
        Cta &cta = ctas_[shared_op ? w.id() / warpsPerCta_ : 0];
        std::array<Addr, kWarpSize> addrs;
        executeDataPath(launch_, w, inst, exec, cta.shared, ctx, now, sync_,
                        addrs);
        if (inst.isMemory() && inst.space != MemSpace::Param) {
            // LD/ST-unit timing; a fully predicated-off access issues no
            // transaction and reserves no hazard.
            if (exec != 0) {
                ldst_.submit(&w, inst, addrs, exec, sync_pc, now);
                if (inst.dst.valid())
                    w.scoreboard().reserve(inst);
            }
        } else if (inst.dst.valid()) {
            // ALU-class writeback (ld.param included).
            w.scoreboard().reserve(inst);
            unsigned latency =
                inst.longLatency() ? cfg_.mulDivLatency : cfg_.aluLatency;
            // A zero-latency writeback still lands next cycle.
            if (latency == 0)
                latency = 1;
            wbRing_[(now + latency) % wbRingSize_].push_back(
                WbEvent{&w, &inst});
            ++wbPending_;
        }
        w.stack().advance();
        break;
      }
    }

    backoff_.onInstruction(sib_executed);

    if (w.done())
        onWarpFinished(w);
}

void
SmCore::onWarpFinished(Warp &w)
{
    ddos_->resetWarp(w.id());
    for (auto &sched : schedulers_)
        sched->notifyFinished(&w);
    resident_.erase(std::remove(resident_.begin(), resident_.end(), &w),
                    resident_.end());
    const unsigned unit_id =
        w.id() % static_cast<unsigned>(schedulers_.size());
    auto &unit = unitResident_[unit_id];
    unit.erase(std::remove(unit.begin(), unit.end(), &w), unit.end());
    rebuildUnitMask(unit_id);  // positions shifted by the erase
    Cta &cta = ctas_.at(w.id() / warpsPerCta_);
    if (cta.liveWarps == 0)
        panic("warp finished in an already-empty CTA");
    --cta.liveWarps;
    if (cta.liveWarps == 0)
        ++drainedCtas_;  // retirement scan now has a candidate
    checkBarrier(cta);
}

void
SmCore::rebuildUnitMask(unsigned u)
{
    unitIssuable_[u] = 0;
    unitBackedOff_[u] = 0;
    unitSbReady_[u] = 0;
    unitMemNext_[u] = 0;
    const auto &unit = unitResident_[u];
    for (std::size_t k = 0; k < unit.size(); ++k) {
        const Warp &w = *unit[k];
        unitPosOf_[w.id()] = static_cast<std::uint32_t>(k);
        refreshWarpMask(w);
    }
}

void
SmCore::refreshWarpMask(const Warp &w)
{
    const unsigned u =
        w.id() % static_cast<unsigned>(schedulers_.size());
    const std::uint64_t bit = std::uint64_t{1} << unitPosOf_[w.id()];
    auto put = [bit](std::uint64_t &m, bool on) {
        m = on ? (m | bit) : (m & ~bit);
    };
    const Instruction &inst = fetch(w.stack().pc());
    put(unitIssuable_[u], !w.atBarrier());
    put(unitBackedOff_[u], w.bows().backedOff);
    put(unitSbReady_[u], w.scoreboard().canIssue(inst));
    put(unitMemNext_[u],
        inst.isMemory() && inst.space != MemSpace::Param);
}

void
SmCore::noteSyncTransition(trace::EventKind kind, Warp &w, Cycle now)
{
    const std::uint64_t key = launch_.warpKeyBase + w.age() + 1;
    if (kind == trace::EventKind::BackoffEnter)
        sync_.onBackoffEnter(key, now);
    else
        sync_.onSibConfirm(key, now);
}

bool
SmCore::cycle(Cycle now)
{
    now_ = now;
    tryLaunchCtas();

    // 1. Memory and ALU writebacks due this cycle. Each release may
    //    clear the warp's scoreboard gate; a finished warp has left its
    //    unit (its position slot is stale).
    const bool tracing = tracer_.enabled();
    memCompletions_.clear();
    ldst_.cycle(now, memCompletions_);
    for (const MemCompletion &c : memCompletions_) {
        if (c.inst->dst.valid()) {
            c.warp->scoreboard().release(*c.inst);
            if (!c.warp->done())
                refreshWarpMask(*c.warp);
            if (tracing) {
                tracer_.emit(now, id_,
                             static_cast<std::int32_t>(c.warp->id()),
                             trace::EventKind::Writeback,
                             static_cast<std::uint64_t>(c.inst - code_));
            }
        }
    }
    if (wbPending_ != 0) {
        std::vector<WbEvent> &due = wbRing_[now % wbRingSize_];
        if (!due.empty()) {
            for (const WbEvent &ev : due) {
                ev.warp->scoreboard().release(*ev.inst);
                if (!ev.warp->done())
                    refreshWarpMask(*ev.warp);
                if (tracing) {
                    tracer_.emit(now, id_,
                                 static_cast<std::int32_t>(ev.warp->id()),
                                 trace::EventKind::Writeback,
                                 static_cast<std::uint64_t>(ev.inst -
                                                            code_));
                }
            }
            wbPending_ -= due.size();
            due.clear();
        }
    }

    // 2. The BOWS adaptive window. (Back-off delays are absolute
    //    deadlines, so there are no per-warp counters to tick.)
    backoff_.tickWindow(now);
    stats_.delayLimitCycleSum += backoff_.delayLimit();

    // 3. Issue: one instruction per scheduler unit per cycle (Fig. 8
    //    arbitration: the base policy's pick() over the ready
    //    non-backed-off warps, then the backed-off queue in FIFO order).
    //    The ready set is taken per unit, after the earlier units'
    //    issues, which may fill the LD/ST port or release a barrier.
    const unsigned units = static_cast<unsigned>(schedulers_.size());
    const bool deprio = backoff_.deprioritizes();
    bool issued_any = false;
    for (unsigned u = 0; u < units; ++u) {
        const std::uint64_t ready = readyMask(u, now);
        if (stallAccounting_)
            checkReadySet(u, ready);
        if (ready == 0)
            continue;
        Scheduler &sched = *schedulers_[u];
        const std::vector<Warp *> &unit = unitResident_[u];
        UnitMask mask;
        mask.valid = true;
        mask.issuable = ready;
        mask.backedOff = unitBackedOff_[u];
        const ReadyGate gate(ready, unitPosOf_.data());
        Warp *winner = sched.pick(unit, mask, now, deprio, gate);
        if (!winner && deprio)
            winner = pickBackedOff(unit, mask, gate);
        if (winner) {
            issue(*winner, now);
            if (stallAccounting_)
                ++stats_.unitIssues[id_ * schedulers_.size() + u];
            // A finished winner left the vectors (masks rebuilt); a
            // live one has a new PC and may have reserved a register,
            // entered a barrier or changed back-off state.
            if (!winner->done())
                refreshWarpMask(*winner);
            sched.notifyIssued(winner, now);
            issued_any = true;
        }
    }

    // 4. Per-cycle warp accounting (CAWA stalls, Fig. 11 occupancy).
    accountCycles(now, 1);

    retireFinishedCtas();
    return issued_any;
}

Cycle
SmCore::nextWorkCycle(Cycle now) const
{
    // A free CTA slot with grid work left dispatches next cycle (a
    // retirement at the end of cycle(now) may have just opened one).
    if (launch_.nextCta < launch_.ctaEnd && validCtas_ < maxResidentCtas_)
        return now + 1;
    Cycle horizon = kNeverCycle;
    if (wbPending_ != 0) {
        // The ring covers at most wbRingSize_-1 cycles ahead and the
        // bucket for `now` was drained this cycle, so the first
        // non-empty bucket is the earliest pending writeback.
        for (unsigned k = 1; k < wbRingSize_; ++k) {
            if (!wbRing_[(now + k) % wbRingSize_].empty()) {
                horizon = now + k;
                break;
            }
        }
    }
    horizon = std::min(horizon, ldst_.nextEventCycle(now));
    if (backoff_.enabled()) {
        // Only unexpired deadlines create future work; a backed-off
        // warp whose delay already expired is blocked by something
        // else (or it would have issued this cycle).
        for (const Warp *w : resident_) {
            const BowsState &b = w->bows();
            if (b.backedOff && b.delayUntil > now)
                horizon = std::min(horizon, b.delayUntil);
        }
    }
    return horizon;
}

void
SmCore::fastForward(Cycle from, Cycle to)
{
    // No unit issued at `from - 1` and nothing can issue before
    // nextWorkCycle() > to, so per-warp eligibility — and with it each
    // warp's stall classification — is frozen across the gap: the gap is
    // one live cycle's accounting scaled by its length. The adaptive
    // window is the exception: the delay limit can change at mid-gap
    // boundaries, which fastForwardWindows() integrates exactly.
    now_ = to;
    stats_.delayLimitCycleSum += backoff_.fastForwardWindows(from, to);
    accountCycles(to, to - from + 1);
}

void
SmCore::accountCycles(Cycle now, std::uint64_t n)
{
    // The occupancy sums are running counters, so only CAWA — the one
    // consumer of per-warp active/stall cycles — needs the warp loop. In
    // a gap nobody issued, so every warp counts n stall cycles.
    KernelStats &st = stats_;
    st.smCycles += n;
    if (cawaAccounting_) {
        for (Warp *w : resident_) {
            w->cawa().activeCycles += n;
            if (w->lastIssueCycle() != now)
                w->cawa().stallCycles += n;
        }
    }
    if (stallAccounting_)
        recordStallCycles(now, n);
    st.residentWarpCycles += n * resident_.size();
    st.backedOffWarpCycles +=
        n * static_cast<std::uint64_t>(backoff_.backedOffCount());
    // Exact under fast-forward: DDOS spin state only changes at issue
    // time, and nothing issues inside an idle gap.
    if (spinAccounting_)
        st.spinningWarpCycles +=
            n * static_cast<std::uint64_t>(spinningWarpCount());
}

void
SmCore::recordStallCycles(Cycle now, std::uint64_t n)
{
    // Every warp still resident after this cycle's issue gets exactly n
    // counts (Issued or its first blocking cause), so the table's grand
    // total matches residentWarpCycles. Classification happens after all
    // units issued; issuing only consumes resources, so a warp that looks
    // eligible here genuinely lost arbitration. Tracing never coexists
    // with idle-skip, so IssueStall events are only emitted for n == 1.
    const bool tracing = tracer_.enabled();
    KernelStats &st = stats_;
    const std::size_t sm_base =
        static_cast<std::size_t>(id_) * st.stallWarpsPerSm;
    const unsigned units = static_cast<unsigned>(schedulers_.size());
    for (unsigned u = 0; u < units; ++u) {
        if (unitResident_[u].empty()) {
            if (tracing && validCtas_ != 0) {
                tracer_.emit(now, id_, -1, trace::EventKind::IssueStall,
                             static_cast<std::uint64_t>(
                                 trace::StallCause::IbufferEmpty));
            }
            continue;
        }
        bool unit_issued = false;
        bool have_cause = false;
        trace::StallCause unit_cause = trace::StallCause::Arbitration;
        for (Warp *w : unitResident_[u]) {
            trace::StallCause cause;
            if (w->lastIssueCycle() == now) {
                cause = trace::StallCause::Issued;
                unit_issued = true;
            } else {
                cause = classifyStall(*w);
                if (!have_cause) {
                    unit_cause = cause;
                    have_cause = true;
                }
            }
            std::size_t idx = (sm_base + w->id()) * trace::kNumStallCauses +
                              static_cast<std::size_t>(cause);
            if (idx < st.stallCounts.size())
                st.stallCounts[idx] += n;
        }
        if (tracing && !unit_issued) {
            tracer_.emit(now, id_, -1, trace::EventKind::IssueStall,
                         static_cast<std::uint64_t>(unit_cause));
        }
    }
}

}  // namespace bowsim
