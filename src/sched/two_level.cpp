#include "src/sched/two_level.hpp"

#include <algorithm>

namespace bowsim {

unsigned
TwoLevelScheduler::numGroups(const std::vector<Warp *> &warps) const
{
    unsigned max_group = 0;
    for (const Warp *w : warps)
        max_group = std::max(max_group, w->id() / groupSize_);
    return max_group + 1;
}

unsigned
TwoLevelScheduler::rank(const Warp *w, unsigned num_groups) const
{
    // Group distance from the active group; group ids wrap so "next"
    // groups follow the active one.
    const unsigned group =
        (w->id() / groupSize_ + num_groups - activeGroup_) % num_groups;
    // Round-robin within the group, starting after the last-issued
    // warp's slot.
    const unsigned last_slot =
        lastIssued_ ? lastIssued_->id() % groupSize_ : groupSize_ - 1;
    const unsigned slot =
        (w->id() % groupSize_ + groupSize_ - 1 - last_slot) % groupSize_;
    return group * groupSize_ + slot;
}

void
TwoLevelScheduler::order(std::vector<Warp *> &warps, Cycle now)
{
    (void)now;
    const unsigned num_groups = numGroups(warps);
    std::stable_sort(warps.begin(), warps.end(),
                     [&](const Warp *a, const Warp *b) {
                         return rank(a, num_groups) < rank(b, num_groups);
                     });
}

Warp *
TwoLevelScheduler::pick(const std::vector<Warp *> &warps,
                        const UnitMask &mask, Cycle now, bool deprioritize,
                        const IssueGate &gate)
{
    (void)now;
    const std::uint64_t cand = candidates(mask, deprioritize);
    // The group count spans every resident, candidate or not.
    const unsigned num_groups = numGroups(warps);
    return pickMinRank(warps, cand, gate, [&](const Warp *w) {
        return rank(w, num_groups);
    });
}

}  // namespace bowsim
