#ifndef BOWSIM_SCHED_TWO_LEVEL_HPP
#define BOWSIM_SCHED_TWO_LEVEL_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * Two-level warp scheduling [Narasiman et al., MICRO'11], provided as an
 * additional baseline beyond the paper's LRR/GTO/CAWA set. Warps are
 * partitioned into fixed fetch groups; the scheduler issues round-robin
 * within the active group and only falls over to other groups when the
 * active group cannot issue — so groups drift apart in time and
 * long-latency stalls of one group hide under the execution of another.
 */

namespace bowsim {

class TwoLevelScheduler : public Scheduler {
  public:
    explicit TwoLevelScheduler(unsigned group_size)
        : groupSize_(group_size ? group_size : 8)
    {
    }

    void order(std::vector<Warp *> &warps, Cycle now) override;
    Warp *pick(const std::vector<Warp *> &warps, const UnitMask &mask,
               Cycle now, bool deprioritize,
               const IssueGate &gate) override;

    void
    notifyIssued(Warp *warp, Cycle now) override
    {
        Scheduler::notifyIssued(warp, now);
        activeGroup_ = warp->id() / groupSize_;
    }

    const char *name() const override { return "TwoLevel"; }

    unsigned groupSize() const { return groupSize_; }

  private:
    /** One past the highest group id among @p warps. */
    unsigned numGroups(const std::vector<Warp *> &warps) const;
    /** Priority rank, smaller first: (group distance from the active
     *  group, slot rotated past the last-issued warp's). */
    unsigned rank(const Warp *w, unsigned num_groups) const;

    unsigned groupSize_;
    unsigned activeGroup_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_TWO_LEVEL_HPP
