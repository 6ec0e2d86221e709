/**
 * @file
 * Abstract direct-network topology: a set of nodes addressed by
 * n-dimensional coordinates, connected by pairs of unidirectional
 * channels. Concrete subclasses implement n-dimensional meshes,
 * k-ary n-cubes (tori), and hypercubes.
 */

#ifndef TURNMODEL_TOPOLOGY_TOPOLOGY_HPP
#define TURNMODEL_TOPOLOGY_TOPOLOGY_HPP

#include <optional>
#include <string>
#include <vector>

#include "topology/coordinates.hpp"
#include "topology/direction.hpp"
#include "util/logging.hpp"

namespace turnmodel {

/**
 * Base class for direct-network topologies.
 *
 * Every topology embeds its nodes in an n-dimensional grid; subclasses
 * only differ in which hops exist (mesh edges stop at the boundary,
 * torus edges wrap around). The simulator, the routing algorithms and
 * the deadlock checker all see the network through this interface.
 */
class Topology
{
  public:
    explicit Topology(Shape shape);
    virtual ~Topology() = default;

    /**
     * Number of routing dimensions n. Virtual-channel topologies
     * report their *virtual* dimension count here (each set of
     * virtual channels in a physical direction is a distinct virtual
     * direction, Step 1 of the turn model); plain topologies report
     * the physical count.
     */
    virtual int numDims() const
    {
        return static_cast<int>(shape_.size());
    }

    /** Radix k_i of (routing) dimension i. */
    virtual int radix(int dim) const
    {
        return shape_[static_cast<std::size_t>(dim)];
    }

    /** Physical shape vector (k_0, ..., k_{n-1}). */
    const Shape &shape() const { return shape_; }

    /**
     * Physical channel class of an outgoing direction: directions
     * mapping to the same value at a node share one physical wire
     * and hence its bandwidth. Identity for plain topologies.
     */
    virtual DirId physicalChannelGroup(DirId dir) const { return dir; }

    /** Whether any two directions share a physical channel. */
    virtual bool hasSharedPhysicalChannels() const { return false; }

    /**
     * Whether this is a full grid: every node of the shape present,
     * the routing dimensions are the physical ones, and the hop along
     * d exists exactly when the coordinate stays inside the shape (no
     * wraparound, no faults). On a full grid, pairs of nodes whose
     * coordinates differ with the same signs see the same hops, which
     * is what lets a sign-class routing table stand in for a dense
     * one (core/routing/compiled.hpp).
     */
    virtual bool isFullGrid() const { return false; }

    /** Total node count. */
    NodeId numNodes() const { return num_nodes_; }

    /** Number of direction ids, 2n. */
    int numDirs() const { return 2 * numDims(); }

    /** Coordinates of a node. */
    Coords coords(NodeId node) const { return coordsOf(node, shape_); }

    /** Node at the given coordinates. */
    NodeId node(const Coords &coords) const { return nodeAt(coords, shape_); }

    /**
     * Coordinate of @p node in physical dimension @p pdim, i.e.
     * coords(node)[pdim] without building the coordinate vector.
     */
    int coordAt(NodeId node, int pdim) const
    {
        TM_ASSERT(node < num_nodes_, "node id ", node, " outside of shape");
        const auto d = static_cast<std::size_t>(pdim);
        return static_cast<int>(node / strides_[d]
                                % static_cast<NodeId>(shape_[d]));
    }

    /**
     * The neighbor reached by leaving @p node in direction @p dir, or
     * nullopt when no channel exists that way (mesh boundary).
     */
    virtual std::optional<NodeId> neighbor(NodeId node, Direction dir)
        const = 0;

    /**
     * True when the hop out of @p node in direction @p dir uses a
     * wraparound channel (always false for meshes).
     */
    virtual bool isWraparound(NodeId node, Direction dir) const = 0;

    /** Short human-readable description, e.g. "16x16 mesh". */
    virtual std::string name() const = 0;

    /**
     * Minimal hop distance between two nodes under this topology's
     * channels (wraparound counts for tori).
     */
    virtual int distance(NodeId a, NodeId b) const = 0;

    /** Hops of the longest shortest path in the network. */
    virtual int diameter() const = 0;

    /** Directions with an outgoing channel at @p node. */
    std::vector<Direction> outgoingDirections(NodeId node) const;

    /**
     * Directions d such that the channel arriving at @p node carrying
     * packets that travel in direction d exists (i.e. the reverse hop
     * out of @p node along d.opposite() exists).
     */
    std::vector<Direction> incomingDirections(NodeId node) const;

    /** Total number of unidirectional network channels. */
    std::size_t countChannels() const;

  protected:
    /**
     * Node-id distance between neighbors along physical dimension
     * @p pdim: stepping +1 in that coordinate adds stride(pdim).
     */
    NodeId stride(int pdim) const
    {
        return strides_[static_cast<std::size_t>(pdim)];
    }

    /**
     * The node one hop from @p node along physical dimension @p pdim
     * (towards higher coordinates when @p positive), or nullopt when
     * the hop would leave the grid. Wraparound is the caller's job.
     */
    std::optional<NodeId> step(NodeId node, int pdim, bool positive) const
    {
        const int c = coordAt(node, pdim);
        if (positive) {
            if (c + 1 >= shape_[static_cast<std::size_t>(pdim)])
                return std::nullopt;
            return node + stride(pdim);
        }
        if (c == 0)
            return std::nullopt;
        return node - stride(pdim);
    }

    Shape shape_;
    NodeId num_nodes_;
    /** strides_[d] = k_0 * ... * k_{d-1}, the id weight of dim d. */
    std::vector<NodeId> strides_;
};

} // namespace turnmodel

#endif // TURNMODEL_TOPOLOGY_TOPOLOGY_HPP
