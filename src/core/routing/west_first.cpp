#include "core/routing/west_first.hpp"

#include "util/logging.hpp"

namespace turnmodel {

WestFirstRouting::WestFirstRouting(const Topology &topo)
    : topo_(topo)
{
    TM_ASSERT(topo.numDims() == 2, "west-first routing is defined on 2D");
}

DirectionSet
WestFirstRouting::routeSet(NodeId current, std::optional<Direction>,
                           NodeId dest) const
{
    const int dx = topo_.coordAt(dest, 0) - topo_.coordAt(current, 0);
    // Phase one: all westward hops happen before anything else.
    if (dx < 0)
        return DirectionSet::single(dir2d::West);
    // Phase two: fully adaptive among the remaining profitable
    // directions (south, east, north).
    const int dy = topo_.coordAt(dest, 1) - topo_.coordAt(current, 1);
    DirectionSet dirs;
    if (dy < 0)
        dirs.insert(dir2d::South);
    if (dx > 0)
        dirs.insert(dir2d::East);
    if (dy > 0)
        dirs.insert(dir2d::North);
    TM_ASSERT(!dirs.empty(), "routeSet() called with current == dest");
    return dirs;
}

} // namespace turnmodel
