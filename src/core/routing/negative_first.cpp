#include "core/routing/negative_first.hpp"

#include "util/logging.hpp"

namespace turnmodel {

NegativeFirstRouting::NegativeFirstRouting(const Topology &topo)
    : topo_(topo)
{
}

DirectionSet
NegativeFirstRouting::routeSet(NodeId current, std::optional<Direction>,
                               NodeId dest) const
{
    // Phase one: all negative hops, adaptively interleaved. Phase
    // two: all positive hops, adaptively interleaved.
    DirectionSet negative;
    DirectionSet positive;
    const int n = static_cast<int>(topo_.shape().size());
    for (int d = 0; d < n; ++d) {
        const int delta = topo_.coordAt(dest, d) - topo_.coordAt(current, d);
        if (delta < 0)
            negative.insert(Direction(static_cast<std::uint8_t>(d), false));
        else if (delta > 0)
            positive.insert(Direction(static_cast<std::uint8_t>(d), true));
    }
    if (!negative.empty())
        return negative;
    TM_ASSERT(!positive.empty(), "routeSet() called with current == dest");
    return positive;
}

} // namespace turnmodel
