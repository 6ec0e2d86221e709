#include "core/routing/all_but_one.hpp"

#include "util/logging.hpp"

namespace turnmodel {

AllButOneNegativeFirstRouting::AllButOneNegativeFirstRouting(
        const Topology &topo)
    : topo_(topo)
{
    TM_ASSERT(topo.numDims() >= 2, "abonf needs at least two dimensions");
}

DirectionSet
AllButOneNegativeFirstRouting::routeSet(NodeId current,
                                        std::optional<Direction>,
                                        NodeId dest) const
{
    // Phase one: negative hops in dimensions 0..n-2, adaptively.
    // Phase two: every other profitable direction (all positives plus
    // the negative direction of dimension n-1), adaptively.
    DirectionSet first;
    DirectionSet second;
    const int last = static_cast<int>(topo_.shape().size()) - 1;
    for (int d = 0; d <= last; ++d) {
        const int delta = topo_.coordAt(dest, d) - topo_.coordAt(current, d);
        const auto dim = static_cast<std::uint8_t>(d);
        if (delta < 0)
            (d < last ? first : second).insert(Direction(dim, false));
        else if (delta > 0)
            second.insert(Direction(dim, true));
    }
    if (!first.empty())
        return first;
    TM_ASSERT(!second.empty(), "routeSet() called with current == dest");
    return second;
}

AllButOnePositiveLastRouting::AllButOnePositiveLastRouting(
        const Topology &topo)
    : topo_(topo)
{
    TM_ASSERT(topo.numDims() >= 2, "abopl needs at least two dimensions");
}

DirectionSet
AllButOnePositiveLastRouting::routeSet(NodeId current,
                                       std::optional<Direction>,
                                       NodeId dest) const
{
    // Phase one: all negative directions plus the positive direction
    // of dimension 0, adaptively. Phase two: the remaining positive
    // directions, adaptively.
    DirectionSet first;
    DirectionSet second;
    const int n = static_cast<int>(topo_.shape().size());
    for (int d = 0; d < n; ++d) {
        const int delta = topo_.coordAt(dest, d) - topo_.coordAt(current, d);
        const auto dim = static_cast<std::uint8_t>(d);
        if (delta < 0)
            first.insert(Direction(dim, false));
        else if (delta > 0)
            (d == 0 ? first : second).insert(Direction(dim, true));
    }
    if (!first.empty())
        return first;
    TM_ASSERT(!second.empty(), "routeSet() called with current == dest");
    return second;
}

} // namespace turnmodel
