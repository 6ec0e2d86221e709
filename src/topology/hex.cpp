#include "topology/hex.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

HexMesh::HexMesh(int kq, int kr)
    : Topology(Shape{kq, kr})
{
}

int
HexMesh::radix(int dim) const
{
    // The s axis spans the shorter of the two rhombus sides.
    if (dim == 0)
        return shape_[0];
    if (dim == 1)
        return shape_[1];
    return std::min(shape_[0], shape_[1]);
}

std::pair<int, int>
HexMesh::axialDelta(Direction dir)
{
    const int sign = dir.delta();
    switch (dir.dim) {
      case 0:  return {sign, 0};
      case 1:  return {0, sign};
      default: return {sign, -sign};
    }
}

std::optional<NodeId>
HexMesh::neighbor(NodeId node, Direction dir) const
{
    const auto [dq, dr] = axialDelta(dir);
    const int q = coordAt(node, 0) + dq;
    const int r = coordAt(node, 1) + dr;
    if (q < 0 || q >= shape_[0] || r < 0 || r >= shape_[1])
        return std::nullopt;
    return static_cast<NodeId>(q) + static_cast<NodeId>(r) * stride(1);
}

bool
HexMesh::isWraparound(NodeId, Direction) const
{
    return false;
}

std::string
HexMesh::name() const
{
    return std::to_string(shape_[0]) + "x" + std::to_string(shape_[1])
        + " hex mesh";
}

int
HexMesh::distance(NodeId a, NodeId b) const
{
    const int dq = coordAt(b, 0) - coordAt(a, 0);
    const int dr = coordAt(b, 1) - coordAt(a, 1);
    return (std::abs(dq) + std::abs(dr) + std::abs(dq + dr)) / 2;
}

int
HexMesh::diameter() const
{
    // Opposite corners of the rhombus along the "long" diagonal:
    // deltas share a sign there, so distance is their sum.
    return (shape_[0] - 1) + (shape_[1] - 1);
}

} // namespace turnmodel
