/**
 * @file
 * North-last partially adaptive routing for 2D meshes (Glass & Ni,
 * Section 3.2): route a packet first adaptively west, south, and
 * east, and then north. Prohibits the two turns made while
 * travelling north (Figure 9a), so once a packet heads north it can
 * no longer turn; deadlock free by Theorem 3.
 */

#ifndef TURNMODEL_CORE_ROUTING_NORTH_LAST_HPP
#define TURNMODEL_CORE_ROUTING_NORTH_LAST_HPP

#include "core/routing.hpp"

namespace turnmodel {

/** Minimal north-last routing on a 2D mesh. */
class NorthLastRouting : public RoutingAlgorithm
{
  public:
    /** @param topo A 2D mesh; must outlive this object. */
    explicit NorthLastRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "north-last"; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_NORTH_LAST_HPP
