#include "topology/torus.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

namespace {

Shape
uniformShape(int k, int n)
{
    TM_ASSERT(k >= 2, "k-ary n-cube requires k >= 2");
    TM_ASSERT(n >= 1, "k-ary n-cube requires n >= 1");
    return Shape(static_cast<std::size_t>(n), k);
}

} // namespace

KAryNCube::KAryNCube(int k, int n)
    : Topology(uniformShape(k, n))
{
}

std::optional<NodeId>
KAryNCube::neighbor(NodeId node, Direction dir) const
{
    if (const auto next = step(node, dir.dim, dir.positive))
        return next;
    // The hop leaves the array edge and wraps to the opposite one. In
    // a 2-ary cube both directions reach the same single neighbor;
    // model one channel per neighbor pair by only exposing the hop
    // whose direction matches the non-wrapping move.
    const int k = shape_[dir.dim];
    if (k == 2)
        return std::nullopt;
    const NodeId span = static_cast<NodeId>(k - 1) * stride(dir.dim);
    return dir.positive ? node - span : node + span;
}

bool
KAryNCube::isWraparound(NodeId node, Direction dir) const
{
    const int c = coordAt(node, dir.dim);
    if (dir.positive)
        return c == shape_[dir.dim] - 1;
    return c == 0;
}

std::string
KAryNCube::name() const
{
    return std::to_string(k()) + "-ary " + std::to_string(numDims())
        + "-cube";
}

int
KAryNCube::distance(NodeId a, NodeId b) const
{
    int dist = 0;
    for (std::size_t d = 0; d < shape_.size(); ++d) {
        const int i = static_cast<int>(d);
        const int direct = std::abs(coordAt(a, i) - coordAt(b, i));
        dist += std::min(direct, shape_[d] - direct);
    }
    return dist;
}

int
KAryNCube::diameter() const
{
    int diam = 0;
    for (int k : shape_)
        diam += k / 2;
    return diam;
}

} // namespace turnmodel
