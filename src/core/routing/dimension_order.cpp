#include "core/routing/dimension_order.hpp"

#include "util/logging.hpp"

namespace turnmodel {

DimensionOrderRouting::DimensionOrderRouting(const Topology &topo)
    : topo_(topo)
{
}

DirectionSet
DimensionOrderRouting::routeSet(NodeId current, std::optional<Direction>,
                                NodeId dest) const
{
    const int n = static_cast<int>(topo_.shape().size());
    for (int d = 0; d < n; ++d) {
        const int delta = topo_.coordAt(dest, d) - topo_.coordAt(current, d);
        if (delta == 0)
            continue;
        const Direction dir(static_cast<std::uint8_t>(d), delta > 0);
        TM_ASSERT(topo_.neighbor(current, dir).has_value(),
                  "dimension-order hop missing from topology");
        return DirectionSet::single(dir);
    }
    TM_PANIC("routeSet() called with current == dest");
}

std::string
DimensionOrderRouting::name() const
{
    if (topo_.numDims() == 2)
        return "xy";
    bool all_binary = true;
    for (int d = 0; d < topo_.numDims(); ++d)
        all_binary = all_binary && topo_.radix(d) == 2;
    return all_binary ? "e-cube" : "dimension-order";
}

} // namespace turnmodel
