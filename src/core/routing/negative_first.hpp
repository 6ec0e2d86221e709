/**
 * @file
 * Negative-first partially adaptive routing for n-dimensional meshes
 * (Glass & Ni, Sections 3.3 and 4.1): route a packet first adaptively
 * in the negative directions, then adaptively in the positive
 * directions. Prohibits every turn from a positive to a negative
 * direction; deadlock free by Theorem 5's channel numbering.
 */

#ifndef TURNMODEL_CORE_ROUTING_NEGATIVE_FIRST_HPP
#define TURNMODEL_CORE_ROUTING_NEGATIVE_FIRST_HPP

#include "core/routing.hpp"

namespace turnmodel {

/** Minimal negative-first routing on an n-dimensional mesh. */
class NegativeFirstRouting : public RoutingAlgorithm
{
  public:
    /** @param topo An n-dimensional mesh; must outlive this object. */
    explicit NegativeFirstRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "negative-first"; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_NEGATIVE_FIRST_HPP
