/**
 * @file
 * The routing-function interface shared by the analytical layer (the
 * deadlock checker, adaptiveness counters) and the wormhole simulator.
 * A routing algorithm maps (current node, arrival direction,
 * destination) to the set of output directions the packet's header may
 * take; the simulator's output-selection policy picks among them.
 *
 * Decisions are DirectionSet bitmask values (core/direction_set.hpp):
 * routeSet() is the primary virtual every implementation provides,
 * allocation free; the std::vector route() form is a thin non-virtual
 * adapter kept for compatibility with older call sites and tests.
 */

#ifndef TURNMODEL_CORE_ROUTING_HPP
#define TURNMODEL_CORE_ROUTING_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/direction_set.hpp"
#include "topology/topology.hpp"

namespace turnmodel {

/**
 * Abstract routing function.
 *
 * Contract: routeSet() is never called with current == dest (delivery
 * is the caller's job), every returned direction corresponds to an
 * existing hop, and the returned set must be non-empty for every
 * state the algorithm can actually steer a packet into — otherwise
 * the algorithm is not routing-complete and the packet would stall
 * forever.
 */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /**
     * Candidate output directions.
     *
     * @param current Node holding the packet's header flit.
     * @param in_dir  Direction the packet was travelling when it
     *                entered @p current; nullopt for a freshly
     *                injected packet.
     * @param dest    Destination node.
     */
    virtual DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const = 0;

    /**
     * Compatibility adapter: routeSet() materialized as a vector in
     * ascending direction-id order. Prefer routeSet() anywhere
     * performance matters — this form heap-allocates per call.
     */
    std::vector<Direction>
    route(NodeId current, std::optional<Direction> in_dir, NodeId dest)
        const
    {
        return routeSet(current, in_dir, dest).toVector();
    }

    /** Algorithm name as used in the paper ("xy", "west-first", ...). */
    virtual std::string name() const = 0;

    /** The topology this instance routes on. */
    virtual const Topology &topology() const = 0;

    /** Whether every offered hop lies on a shortest path. */
    virtual bool isMinimal() const = 0;

    /**
     * Whether routeSet() actually reads in_dir. Input-independent
     * algorithms admit a simpler shortest-path count (memoized on the
     * node alone) and a collapsed compiled-table snapshot.
     */
    virtual bool isInputDependent() const { return false; }

    /**
     * Whether routeSet() depends only on the arrival state and on the
     * sign of (dest - current) in each dimension. On a full grid
     * (Topology::isFullGrid) such an algorithm compiles into one entry
     * per arrival state and sign class — 3^n classes — instead of one
     * per (node, destination) pair.
     */
    virtual bool decidesBySign() const { return false; }
};

/**
 * Directions that strictly reduce the distance to @p dest — the
 * "profitable" hops of minimal routing. For tori both ways around a
 * ring are returned when they tie.
 */
DirectionSet
minimalDirectionSet(const Topology &topo, NodeId current, NodeId dest);

/** Vector-form adapter of minimalDirectionSet (id order). */
std::vector<Direction>
minimalDirections(const Topology &topo, NodeId current, NodeId dest);

/** True when moving from @p current along @p dir reduces distance. */
bool isProfitable(const Topology &topo, NodeId current, Direction dir,
                  NodeId dest);

using RoutingPtr = std::unique_ptr<RoutingAlgorithm>;

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_HPP
