/**
 * @file
 * West-first partially adaptive routing for 2D meshes (Glass & Ni,
 * Section 3.1): route a packet first west, if necessary, and then
 * adaptively south, east, and north. Prohibits the two turns to the
 * west, which breaks both abstract cycles (Figure 5a), so the
 * algorithm is deadlock free (Theorem 2).
 */

#ifndef TURNMODEL_CORE_ROUTING_WEST_FIRST_HPP
#define TURNMODEL_CORE_ROUTING_WEST_FIRST_HPP

#include "core/routing.hpp"

namespace turnmodel {

/** Minimal west-first routing on a 2D mesh. */
class WestFirstRouting : public RoutingAlgorithm
{
  public:
    /** @param topo A 2D mesh; must outlive this object. */
    explicit WestFirstRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "west-first"; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_WEST_FIRST_HPP
