#include "src/sched/scheduler.hpp"

#include <bit>

#include "src/sched/cawa.hpp"
#include "src/sched/gto.hpp"
#include "src/sched/lrr.hpp"
#include "src/sched/two_level.hpp"

namespace bowsim {

std::unique_ptr<Scheduler>
makeScheduler(const GpuConfig &cfg)
{
    switch (cfg.scheduler) {
      case SchedulerKind::LRR:
        return std::make_unique<LrrScheduler>();
      case SchedulerKind::GTO:
        return std::make_unique<GtoScheduler>(cfg.gtoRotatePeriod);
      case SchedulerKind::CAWA:
        return std::make_unique<CawaScheduler>();
      case SchedulerKind::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(cfg.twoLevelGroupSize);
    }
    fatal("unknown scheduler kind");
}

Warp *
pickBackedOff(const std::vector<Warp *> &warps, const UnitMask &mask,
              const IssueGate &gate)
{
    // Barrier-parked warps are never backed off (issuing the bar
    // cleared the state), so masking with issuable loses nothing.
    Warp *best = nullptr;
    for (std::uint64_t boff = mask.backedOff & mask.issuable; boff != 0;
         boff &= boff - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(boff))];
        if (best && w->bows().backoffSeq >= best->bows().backoffSeq)
            continue;
        if (gate.eligible(*w))
            best = w;
    }
    return best;
}

}  // namespace bowsim
