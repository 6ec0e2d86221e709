/**
 * @file
 * Hypercube routing algorithms (Glass & Ni, Section 5):
 *
 *  - e-cube: nonadaptive, corrects the lowest differing dimension
 *    first (the hypercube instance of dimension-order routing);
 *  - p-cube: the hypercube special case of negative-first. With
 *    minimal routing, phase one clears dimensions where c_i = 1 and
 *    d_i = 0 (Figure 11); the nonminimal variant may additionally
 *    take any dimension with c_i = 1 in phase one (Figure 12).
 *
 * Both operate directly on binary node addresses via bitwise logic,
 * exactly as the paper's router would.
 */

#ifndef TURNMODEL_CORE_ROUTING_PCUBE_HPP
#define TURNMODEL_CORE_ROUTING_PCUBE_HPP

#include "core/routing.hpp"
#include "topology/hypercube.hpp"

namespace turnmodel {

/** Nonadaptive e-cube routing on a hypercube. */
class ECubeRouting : public RoutingAlgorithm
{
  public:
    /** @param cube Hypercube; must outlive this object. */
    explicit ECubeRouting(const Hypercube &cube);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override { return "e-cube"; }
    const Topology &topology() const override { return cube_; }
    bool isMinimal() const override { return true; }
    bool decidesBySign() const override { return true; }

  private:
    const Hypercube &cube_;
};

/** Partially adaptive p-cube routing on a hypercube. */
class PCubeRouting : public RoutingAlgorithm
{
  public:
    /**
     * @param cube    Hypercube; must outlive this object.
     * @param minimal When false, phase one may also traverse
     *                dimensions with c_i = 1 and d_i = 1 (Figure 12),
     *                trading path length for adaptiveness.
     */
    explicit PCubeRouting(const Hypercube &cube, bool minimal = true);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override;
    std::string name() const override;
    const Topology &topology() const override { return cube_; }
    bool isMinimal() const override { return minimal_; }
    /** Minimal only: the nonminimal phase one also reads which
     * address bits are set where C and D agree. */
    bool decidesBySign() const override { return minimal_; }

    /**
     * The dimension choices available at @p current for @p dest,
     * split into the minimal candidates and the extra nonminimal
     * candidates — the quantities tabulated in the paper's Section 5
     * example.
     */
    struct Choices
    {
        std::vector<int> minimal_dims;
        std::vector<int> nonminimal_dims;
    };
    Choices choices(NodeId current, NodeId dest) const;

  private:
    const Hypercube &cube_;
    bool minimal_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_PCUBE_HPP
