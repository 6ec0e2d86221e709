#include "topology/oct.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

OctMesh::OctMesh(int m, int n)
    : Topology(Shape{m, n})
{
}

int
OctMesh::radix(int dim) const
{
    if (dim == 0)
        return shape_[0];
    if (dim == 1)
        return shape_[1];
    // Diagonal axes span the shorter side.
    return std::min(shape_[0], shape_[1]);
}

std::pair<int, int>
OctMesh::gridDelta(Direction dir)
{
    const int sign = dir.delta();
    switch (dir.dim) {
      case 0:  return {sign, 0};
      case 1:  return {0, sign};
      case 2:  return {sign, sign};
      default: return {sign, -sign};
    }
}

std::optional<NodeId>
OctMesh::neighbor(NodeId node, Direction dir) const
{
    const auto [dx, dy] = gridDelta(dir);
    const int x = coordAt(node, 0) + dx;
    const int y = coordAt(node, 1) + dy;
    if (x < 0 || x >= shape_[0] || y < 0 || y >= shape_[1])
        return std::nullopt;
    return static_cast<NodeId>(x) + static_cast<NodeId>(y) * stride(1);
}

bool
OctMesh::isWraparound(NodeId, Direction) const
{
    return false;
}

std::string
OctMesh::name() const
{
    return std::to_string(shape_[0]) + "x" + std::to_string(shape_[1])
        + " octagonal mesh";
}

int
OctMesh::distance(NodeId a, NodeId b) const
{
    return std::max(std::abs(coordAt(b, 0) - coordAt(a, 0)),
                    std::abs(coordAt(b, 1) - coordAt(a, 1)));
}

int
OctMesh::diameter() const
{
    return std::max(shape_[0], shape_[1]) - 1;
}

} // namespace turnmodel
