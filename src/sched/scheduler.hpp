#ifndef BOWSIM_SCHED_SCHEDULER_HPP
#define BOWSIM_SCHED_SCHEDULER_HPP

#include <bit>
#include <memory>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/common/log.hpp"

/**
 * @file
 * Warp-scheduler policies and the per-unit arbitration rule of Fig. 8.
 * Each SM scheduler unit owns one Scheduler instance. Every cycle in
 * which the unit has a ready warp, the core asks it, through pick(), for
 * its highest-priority eligible warp among the unit's non-backed-off
 * warps; when that finds none, the core serves the backed-off queue in
 * FIFO order (pickBackedOff()). Eligibility — scoreboard, barrier,
 * back-off delay, LD/ST port — stays core-side: the core keeps it as a
 * per-unit ready set (docs/PERF.md, "Ready set") and hands it over as
 * UnitMask::issuable plus an IssueGate, so policies remain pure priority
 * functions. A unit holds at most 64 warps, one bit each in UnitMask.
 */

namespace bowsim {

/**
 * Eligibility oracle handed to pick(): the per-warp checks that stay
 * core-side (scoreboard, barrier, back-off delay, memory-port
 * availability). eligible() must be side-effect free — arbitration
 * probes warps in priority-search order, not list order — and false for
 * finished and barrier-parked warps. The core's gate is a bit test
 * against its ready set (and a finished last-issued warp fails it);
 * policies still consult the gate rather than trust the mask alone,
 * because other callers (perfbench's component timings, the tests)
 * pass a wider mask and a gate that does the filtering.
 */
class IssueGate {
  public:
    virtual bool eligible(Warp &w) const = 0;

  protected:
    ~IssueGate() = default;
};

/**
 * Per-unit warp bitmasks handed to pick(): bit k describes warps[k] of
 * the unit's resident vector. Policies iterate set bits instead of
 * scanning (and dereferencing) every warp slot. The core always fills
 * them (valid is true); pick() treats an invalid mask as a simulator
 * bug.
 */
struct UnitMask {
    /** Warp may be picked. From the core this is the exact ready set
     *  (every core-side gate passes this cycle); other callers may pass
     *  a superset and leave the filtering to the gate. Finished warps
     *  leave the vector immediately, so every resident warp is live. */
    std::uint64_t issuable = 0;
    /** Warp is in the BOWS backed-off state. */
    std::uint64_t backedOff = 0;
    bool valid = false;
};

/** Most warps one scheduler unit may hold: one UnitMask bit each. */
inline constexpr unsigned kMaxWarpsPerUnit = 64;

class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /**
     * Sorts @p warps into descending scheduling priority. pick() selects
     * by the same per-policy key; order() is its readable reference.
     */
    virtual void order(std::vector<Warp *> &warps, Cycle now) = 0;

    /**
     * Arbitration: the first warp of order(@p warps) that is a
     * candidate and passes @p gate, or nullptr — found without
     * materializing the ordered list. Candidates are the mask.issuable
     * warps, minus the mask.backedOff ones when @p deprioritize (the
     * core then serves those through pickBackedOff()). @p warps must be
     * the unit's residents in launch-age order (the order the core
     * maintains).
     */
    virtual Warp *pick(const std::vector<Warp *> &warps,
                       const UnitMask &mask, Cycle now, bool deprioritize,
                       const IssueGate &gate) = 0;
    /** Every policy implements pick(). */
    bool supportsPick() const { return true; }

    /** Called when @p warp wins arbitration this cycle. */
    virtual void
    notifyIssued(Warp *warp, Cycle now)
    {
        (void)now;
        lastIssued_ = warp;
    }

    /** Called when @p warp retires so stale pointers are dropped. */
    virtual void
    notifyFinished(Warp *warp)
    {
        if (lastIssued_ == warp)
            lastIssued_ = nullptr;
    }

    virtual const char *name() const = 0;

  protected:
    /** pick()'s candidate bits (see pick()). */
    static std::uint64_t
    candidates(const UnitMask &mask, bool deprioritize)
    {
        if (!mask.valid)
            panic("scheduler pick() without a valid unit mask");
        return deprioritize ? mask.issuable & ~mask.backedOff
                            : mask.issuable;
    }

    /**
     * The greedy rule of GTO and CAWA: the last-issued warp, when it is
     * a candidate and eligible, else nullptr. A finished or
     * barrier-parked last-issued warp fails the gate.
     */
    Warp *
    greedyPick(bool deprioritize, const IssueGate &gate) const
    {
        Warp *li = lastIssued_;
        if (li && !(deprioritize && li->bows().backedOff) &&
            gate.eligible(*li))
            return li;
        return nullptr;
    }

    /**
     * The eligible candidate (set bit of @p cand) with the smallest
     * rank(w), or nullptr; ties go to the lower position, as in a
     * stable sort of the residents by rank. The gate is only consulted
     * for warps that would improve on the current best.
     */
    template <typename RankFn>
    static Warp *
    pickMinRank(const std::vector<Warp *> &warps, std::uint64_t cand,
                const IssueGate &gate, RankFn rank)
    {
        Warp *best = nullptr;
        decltype(rank(warps[0])) best_rank{};
        for (; cand != 0; cand &= cand - 1) {
            Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
            const auto r = rank(w);
            if (best && !(r < best_rank))
                continue;
            if (gate.eligible(*w)) {
                best = w;
                best_rank = r;
            }
        }
        return best;
    }

    Warp *lastIssued_ = nullptr;
};

/**
 * The backed-off queue of Fig. 8, served when pick() finds no eligible
 * non-backed-off warp under deprioritization: FIFO by backoffSeq ticket,
 * so the eligible backed-off warp with the smallest ticket, or nullptr.
 */
Warp *pickBackedOff(const std::vector<Warp *> &warps, const UnitMask &mask,
                    const IssueGate &gate);

/** Creates the configured base policy. */
std::unique_ptr<Scheduler> makeScheduler(const GpuConfig &cfg);

}  // namespace bowsim

#endif  // BOWSIM_SCHED_SCHEDULER_HPP
