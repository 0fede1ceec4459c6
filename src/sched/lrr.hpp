#ifndef BOWSIM_SCHED_LRR_HPP
#define BOWSIM_SCHED_LRR_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * Loose round-robin: priority rotates so the warp after the last-issued
 * one (by warp id) comes first each cycle.
 */

namespace bowsim {

class LrrScheduler : public Scheduler {
  public:
    void order(std::vector<Warp *> &warps, Cycle now) override;
    Warp *pick(const std::vector<Warp *> &warps, const UnitMask &mask,
               Cycle now, bool deprioritize,
               const IssueGate &gate) override;
    const char *name() const override { return "LRR"; }

  private:
    /** The warp id the rotation starts at (see lrr.cpp). */
    unsigned rotationStart(const std::vector<Warp *> &warps) const;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_LRR_HPP
