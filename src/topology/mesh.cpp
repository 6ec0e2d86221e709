#include "topology/mesh.hpp"

#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

NDMesh::NDMesh(Shape shape)
    : Topology(std::move(shape))
{
}

NDMesh
NDMesh::mesh2D(int m, int n)
{
    return NDMesh(Shape{m, n});
}

std::optional<NodeId>
NDMesh::neighbor(NodeId node, Direction dir) const
{
    return step(node, dir.dim, dir.positive);
}

bool
NDMesh::isWraparound(NodeId, Direction) const
{
    return false;
}

std::string
NDMesh::name() const
{
    std::string out;
    for (std::size_t d = 0; d < shape_.size(); ++d) {
        if (d > 0)
            out += 'x';
        out += std::to_string(shape_[d]);
    }
    return out + " mesh";
}

int
NDMesh::distance(NodeId a, NodeId b) const
{
    int dist = 0;
    for (int d = 0; d < static_cast<int>(shape_.size()); ++d)
        dist += std::abs(coordAt(a, d) - coordAt(b, d));
    return dist;
}

int
NDMesh::diameter() const
{
    int diam = 0;
    for (int k : shape_)
        diam += k - 1;
    return diam;
}

} // namespace turnmodel
