#include "core/routing/odd_even.hpp"

#include "util/logging.hpp"

namespace turnmodel {

TurnRule
oddEvenTurnRule(const Topology &topo)
{
    return [&topo](NodeId at, Turn t) {
        if (t.kind() == TurnKind::Zero)
            return true;    // Straight travel is always allowed.
        if (t.kind() == TurnKind::OneEighty)
            return false;   // Minimal-model default.
        const bool even_column = topo.coordAt(at, 0) % 2 == 0;
        const bool from_east = t.from == dir2d::East;
        const bool to_west = t.to == dir2d::West;
        // Rules 1 and 2: EN and ES prohibited in even columns; NW
        // and SW prohibited in odd columns.
        if (from_east && even_column)
            return false;
        if (to_west && !even_column)
            return false;
        return true;
    };
}

OddEvenRouting::OddEvenRouting(const Topology &topo, bool minimal)
{
    TM_ASSERT(topo.numDims() == 2,
              "the odd-even model is defined on 2D meshes");
    impl_ = std::make_unique<PositionalTurnRouting>(
        topo, oddEvenTurnRule(topo), minimal,
        minimal ? "odd-even" : "odd-even-nonminimal");
}

DirectionSet
OddEvenRouting::routeSet(NodeId current, std::optional<Direction> in_dir,
                         NodeId dest) const
{
    return impl_->routeSet(current, in_dir, dest);
}

std::string
OddEvenRouting::name() const
{
    return impl_->name();
}

const Topology &
OddEvenRouting::topology() const
{
    return impl_->topology();
}

bool
OddEvenRouting::isMinimal() const
{
    return impl_->isMinimal();
}

} // namespace turnmodel
