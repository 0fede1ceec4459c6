#include "src/sched/cawa.hpp"

#include <algorithm>
#include <utility>

namespace bowsim {

namespace {

/**
 * CAWA priority rank, smaller first: higher criticality, then older.
 * Ages are unique, so ranks are too.
 */
std::pair<double, std::uint64_t>
rank(const Warp *w)
{
    return {-w->cawa().criticality(), w->age()};
}

}  // namespace

void
CawaScheduler::order(std::vector<Warp *> &warps, Cycle now)
{
    (void)now;
    std::sort(warps.begin(), warps.end(),
              [](const Warp *a, const Warp *b) { return rank(a) < rank(b); });
    // CAWA keeps GTO's greedy component: stick with the last-issued warp
    // while it remains schedulable.
    if (lastIssued_) {
        auto it = std::find(warps.begin(), warps.end(), lastIssued_);
        if (it != warps.end()) {
            Warp *w = *it;
            warps.erase(it);
            warps.insert(warps.begin(), w);
        }
    }
}

Warp *
CawaScheduler::pick(const std::vector<Warp *> &warps, const UnitMask &mask,
                    Cycle now, bool deprioritize, const IssueGate &gate)
{
    (void)now;
    const std::uint64_t cand = candidates(mask, deprioritize);
    if (Warp *li = greedyPick(deprioritize, gate))
        return li;
    return pickMinRank(warps, cand, gate, rank);
}

}  // namespace bowsim
