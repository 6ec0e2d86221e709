#include "topology/topology.hpp"

#include "util/logging.hpp"

namespace turnmodel {

Topology::Topology(Shape shape)
    : shape_(std::move(shape))
{
    TM_ASSERT(!shape_.empty(), "topology needs at least one dimension");
    const std::uint64_t n = shapeSize(shape_);
    TM_ASSERT(n <= (1ULL << 31), "topology too large");
    num_nodes_ = static_cast<NodeId>(n);
    NodeId stride = 1;
    for (int k : shape_) {
        strides_.push_back(stride);
        stride *= static_cast<NodeId>(k);
    }
}

std::vector<Direction>
Topology::outgoingDirections(NodeId node) const
{
    std::vector<Direction> out;
    out.reserve(static_cast<std::size_t>(numDirs()));
    for (Direction d : allDirections(numDims())) {
        if (neighbor(node, d).has_value())
            out.push_back(d);
    }
    return out;
}

std::vector<Direction>
Topology::incomingDirections(NodeId node) const
{
    std::vector<Direction> in;
    in.reserve(static_cast<std::size_t>(numDirs()));
    for (Direction d : allDirections(numDims())) {
        // A packet arrives at `node` travelling in direction d iff the
        // upstream node exists, i.e. node has a hop in d.opposite().
        if (neighbor(node, d.opposite()).has_value())
            in.push_back(d);
    }
    return in;
}

std::size_t
Topology::countChannels() const
{
    std::size_t count = 0;
    for (NodeId v = 0; v < numNodes(); ++v)
        count += outgoingDirections(v).size();
    return count;
}

} // namespace turnmodel
