/**
 * @file
 * n-dimensional mesh topology: k_0 x k_1 x ... x k_{n-1} nodes, with
 * neighbors differing by one in exactly one coordinate and no
 * wraparound channels.
 */

#ifndef TURNMODEL_TOPOLOGY_MESH_HPP
#define TURNMODEL_TOPOLOGY_MESH_HPP

#include "topology/topology.hpp"

namespace turnmodel {

/** An n-dimensional mesh without wraparound channels. */
class NDMesh : public Topology
{
  public:
    explicit NDMesh(Shape shape);

    /** Convenience constructor for a 2D m x n mesh. */
    static NDMesh mesh2D(int m, int n);

    std::optional<NodeId> neighbor(NodeId node, Direction dir)
        const override;
    bool isWraparound(NodeId node, Direction dir) const override;
    std::string name() const override;
    int distance(NodeId a, NodeId b) const override;
    int diameter() const override;
    bool isFullGrid() const override { return true; }
};

} // namespace turnmodel

#endif // TURNMODEL_TOPOLOGY_MESH_HPP
