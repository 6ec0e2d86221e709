#include "core/routing/north_last.hpp"

#include "util/logging.hpp"

namespace turnmodel {

NorthLastRouting::NorthLastRouting(const Topology &topo)
    : topo_(topo)
{
    TM_ASSERT(topo.numDims() == 2, "north-last routing is defined on 2D");
}

DirectionSet
NorthLastRouting::routeSet(NodeId current, std::optional<Direction>,
                           NodeId dest) const
{
    const int dx = topo_.coordAt(dest, 0) - topo_.coordAt(current, 0);
    const int dy = topo_.coordAt(dest, 1) - topo_.coordAt(current, 1);
    // Adaptive phase: west, south, and east while any of them is
    // profitable. North is deferred because a northbound packet may
    // not turn again.
    DirectionSet dirs;
    if (dx < 0)
        dirs.insert(dir2d::West);
    if (dy < 0)
        dirs.insert(dir2d::South);
    if (dx > 0)
        dirs.insert(dir2d::East);
    if (!dirs.empty())
        return dirs;
    // Final phase: a straight northward run.
    TM_ASSERT(dy > 0, "routeSet() called with current == dest");
    return DirectionSet::single(dir2d::North);
}

} // namespace turnmodel
