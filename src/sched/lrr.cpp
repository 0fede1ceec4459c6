#include "src/sched/lrr.hpp"

#include <algorithm>
#include <cstdint>

namespace bowsim {

namespace {

/**
 * LRR priority rank, smaller first: ascending warp id rotated to begin
 * at @p start. Unsigned wraparound puts the ids below @p start after
 * the rest; ids are unique per unit, so ranks are too.
 */
std::uint32_t
rank(const Warp *w, unsigned start)
{
    return w->id() - start;
}

}  // namespace

unsigned
LrrScheduler::rotationStart(const std::vector<Warp *> &warps) const
{
    // The rotation pivots on the last-issued warp only while it is still
    // resident: a warp whose final issue was its Exit stays recorded as
    // lastIssued_ until its CTA retires, and then the order is plain
    // ascending ids.
    if (lastIssued_ &&
        std::find(warps.begin(), warps.end(), lastIssued_) != warps.end())
        return lastIssued_->id() + 1;
    return 0;
}

void
LrrScheduler::order(std::vector<Warp *> &warps, Cycle now)
{
    (void)now;
    const unsigned start = rotationStart(warps);
    std::sort(warps.begin(), warps.end(),
              [start](const Warp *a, const Warp *b) {
                  return rank(a, start) < rank(b, start);
              });
}

Warp *
LrrScheduler::pick(const std::vector<Warp *> &warps, const UnitMask &mask,
                   Cycle now, bool deprioritize, const IssueGate &gate)
{
    (void)now;
    const std::uint64_t cand = candidates(mask, deprioritize);
    const unsigned start = rotationStart(warps);
    return pickMinRank(warps, cand, gate,
                       [start](const Warp *w) { return rank(w, start); });
}

}  // namespace bowsim
