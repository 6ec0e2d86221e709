#include "core/routing/torus_adapters.hpp"

#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

WraparoundFirstHopRouting::WraparoundFirstHopRouting(const KAryNCube &torus,
                                                     RoutingPtr inner)
    : torus_(torus), inner_(std::move(inner))
{
    TM_ASSERT(inner_ != nullptr, "inner routing required");
    TM_ASSERT(inner_->topology().shape() == torus.shape(),
              "inner mesh must have the torus's shape");
}

int
WraparoundFirstHopRouting::meshDistance(NodeId a, NodeId b) const
{
    int dist = 0;
    for (int d = 0; d < torus_.numDims(); ++d)
        dist += std::abs(torus_.coordAt(a, d) - torus_.coordAt(b, d));
    return dist;
}

DirectionSet
WraparoundFirstHopRouting::routeSet(NodeId current,
                                    std::optional<Direction> in_dir,
                                    NodeId dest) const
{
    // After the first hop only mesh channels may be used; the inner
    // algorithm provides the candidates.
    DirectionSet dirs = inner_->routeSet(current, in_dir, dest);
    if (in_dir)
        return dirs;
    // First hop: also offer wraparound channels that shorten the
    // remaining mesh route.
    const int here = meshDistance(current, dest);
    const int num_dirs = torus_.numDirs();
    for (DirId id = 0; id < num_dirs; ++id) {
        const Direction d = Direction::fromId(id);
        if (!torus_.isWraparound(current, d))
            continue;
        const auto next = torus_.neighbor(current, d);
        if (next && meshDistance(*next, dest) < here)
            dirs.insert(d);
    }
    return dirs;
}

std::string
WraparoundFirstHopRouting::name() const
{
    return inner_->name() + "+wrap-first-hop";
}

TorusNegativeFirstRouting::TorusNegativeFirstRouting(const KAryNCube &torus)
    : torus_(torus)
{
    TM_ASSERT(torus.k() > 2, "classified torus routing needs k > 2");
}

DirectionSet
TorusNegativeFirstRouting::routeSet(NodeId current,
                                    std::optional<Direction>,
                                    NodeId dest) const
{
    const int n = torus_.numDims();

    // Phase one while any coordinate must decrease. The +dim
    // wraparound channel out of coordinate k-1 routes packets to
    // coordinate 0 and is classified as a negative channel; it is
    // offered when going around is shorter.
    DirectionSet dirs;
    bool need_negative = false;
    for (int d = 0; d < n; ++d) {
        const int cur = torus_.coordAt(current, d);
        const int dst = torus_.coordAt(dest, d);
        if (dst < cur) {
            need_negative = true;
            dirs.insert(Direction(static_cast<std::uint8_t>(d), false));
            const int k = torus_.radix(d);
            const bool at_top = cur == k - 1;
            // Around the top: one wraparound hop plus dst positive
            // hops later, versus cur-dst mesh hops.
            if (at_top && 1 + dst < cur - dst)
                dirs.insert(Direction(static_cast<std::uint8_t>(d), true));
        }
    }
    if (need_negative)
        return dirs;

    // Phase two: only classified-positive channels remain legal. The
    // -dim wraparound out of coordinate 0 reaches k-1 and may be used
    // only when the destination sits exactly at k-1 (anything past
    // the destination would need a prohibited negative correction).
    for (int d = 0; d < n; ++d) {
        const int cur = torus_.coordAt(current, d);
        const int dst = torus_.coordAt(dest, d);
        if (dst > cur) {
            dirs.insert(Direction(static_cast<std::uint8_t>(d), true));
            const int k = torus_.radix(d);
            if (cur == 0 && dst == k - 1 && k > 2)
                dirs.insert(Direction(static_cast<std::uint8_t>(d), false));
        }
    }
    TM_ASSERT(!dirs.empty(), "routeSet() called with current == dest");
    return dirs;
}

} // namespace turnmodel
