/**
 * @file
 * The n-dimensional analogs of west-first and north-last (Glass & Ni,
 * Section 4.1):
 *
 *  - all-but-one-negative-first (ABONF): route first adaptively in
 *    the negative directions of all but one dimension (n-1), then
 *    adaptively in the other directions;
 *  - all-but-one-positive-last (ABOPL): route first adaptively in the
 *    negative directions and the positive direction of dimension 0,
 *    then adaptively in the remaining positive directions.
 *
 * For n = 2 these specialize to west-first and north-last.
 */

#ifndef TURNMODEL_CORE_ROUTING_ALL_BUT_ONE_HPP
#define TURNMODEL_CORE_ROUTING_ALL_BUT_ONE_HPP

#include "core/routing.hpp"

namespace turnmodel {

/** Minimal all-but-one-negative-first routing on an n-D mesh. */
class AllButOneNegativeFirstRouting : public RoutingAlgorithm
{
  public:
    /** @param topo An n-dimensional mesh (n >= 2). */
    explicit AllButOneNegativeFirstRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "abonf"; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

/** Minimal all-but-one-positive-last routing on an n-D mesh. */
class AllButOnePositiveLastRouting : public RoutingAlgorithm
{
  public:
    /** @param topo An n-dimensional mesh (n >= 2). */
    explicit AllButOnePositiveLastRouting(const Topology &topo);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "abopl"; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Topology &topo_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_ALL_BUT_ONE_HPP
