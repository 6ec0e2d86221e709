/**
 * @file
 * Nonadaptive dimension-order routing: correct each dimension in
 * ascending index order. This is the paper's xy algorithm on 2D
 * meshes and the e-cube algorithm on hypercubes. Deadlock free
 * because it only turns from lower to higher dimensions, which
 * breaks every abstract cycle; nonadaptive because exactly one
 * output is offered at every hop.
 */

#ifndef TURNMODEL_CORE_ROUTING_DIMENSION_ORDER_HPP
#define TURNMODEL_CORE_ROUTING_DIMENSION_ORDER_HPP

#include "core/routing.hpp"

namespace turnmodel {

/** Dimension-order (xy / e-cube) routing on meshes and hypercubes. */
class DimensionOrderRouting : public RoutingAlgorithm
{
  public:
    /** @param topo Mesh-like topology; must outlive this object. */
    explicit DimensionOrderRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override;
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_DIMENSION_ORDER_HPP
