#include "core/routing.hpp"

namespace turnmodel {

bool
isProfitable(const Topology &topo, NodeId current, Direction dir,
             NodeId dest)
{
    const auto next = topo.neighbor(current, dir);
    if (!next)
        return false;
    return topo.distance(*next, dest) < topo.distance(current, dest);
}

DirectionSet
minimalDirectionSet(const Topology &topo, NodeId current, NodeId dest)
{
    DirectionSet dirs;
    const int here = topo.distance(current, dest);
    const int num_dirs = topo.numDirs();
    for (DirId id = 0; id < num_dirs; ++id) {
        const Direction d = Direction::fromId(id);
        const auto next = topo.neighbor(current, d);
        if (next && topo.distance(*next, dest) < here)
            dirs.insert(d);
    }
    return dirs;
}

std::vector<Direction>
minimalDirections(const Topology &topo, NodeId current, NodeId dest)
{
    return minimalDirectionSet(topo, current, dest).toVector();
}

} // namespace turnmodel
