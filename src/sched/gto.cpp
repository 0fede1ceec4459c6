#include "src/sched/gto.hpp"

#include <algorithm>
#include <bit>

namespace bowsim {

std::size_t
GtoScheduler::rotation(Cycle now, std::size_t n) const
{
    if (rotatePeriod_ == 0 || n == 0)
        return 0;
    return static_cast<std::size_t>(now / rotatePeriod_) % n;
}

void
GtoScheduler::order(std::vector<Warp *> &warps, Cycle now)
{
    // Ages are fixed at warp launch and (age, id) pairs are unique, so
    // the sorted order is unique. The core hands us warps in residency
    // (= age) order, making the input already sorted almost always;
    // checking first turns the per-cycle sort into a linear scan.
    const auto by_age = [](const Warp *a, const Warp *b) {
        if (a->age() != b->age())
            return a->age() < b->age();
        return a->id() < b->id();
    };
    if (!std::is_sorted(warps.begin(), warps.end(), by_age))
        std::sort(warps.begin(), warps.end(), by_age);
    // Periodic age rotation (livelock avoidance): shift which resident
    // warp currently counts as oldest.
    std::rotate(warps.begin(), warps.begin() + rotation(now, warps.size()),
                warps.end());
    // Greedy: the last-issued warp keeps top priority.
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
GtoScheduler::pick(const std::vector<Warp *> &warps, const UnitMask &mask,
                   Cycle now, bool deprioritize, const IssueGate &gate)
{
    // order() puts lastIssued_ first, then the remaining warps in age
    // order rotated by the livelock-avoidance offset. The residents are
    // already age-ordered, so the first eligible candidate of that list
    // is found by a circular scan over the set bits: positions >= rot
    // in ascending order, then the wrapped positions below rot.
    const std::uint64_t cand = candidates(mask, deprioritize);
    if (Warp *li = greedyPick(deprioritize, gate))
        return li;
    const std::size_t rot = rotation(now, warps.size());
    const std::uint64_t low =
        rot > 0 ? cand & ((std::uint64_t{1} << rot) - 1) : 0;
    for (std::uint64_t bits : {cand ^ low, low}) {
        for (; bits != 0; bits &= bits - 1) {
            Warp *w = warps[static_cast<unsigned>(std::countr_zero(bits))];
            if (gate.eligible(*w))
                return w;
        }
    }
    return nullptr;
}

}  // namespace bowsim
