#include "topology/virtual_channels.hpp"

#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace turnmodel {

VirtualizedMesh::VirtualizedMesh(Shape physical_shape,
                                 std::vector<int> vcs)
    : Topology(std::move(physical_shape)), vcs_(std::move(vcs))
{
    TM_ASSERT(vcs_.size() == shape_.size(),
              "one virtual channel count per physical dimension");
    num_virtual_dims_ = 0;
    for (std::size_t p = 0; p < vcs_.size(); ++p) {
        TM_ASSERT(vcs_[p] >= 1, "each dimension needs at least one "
                                "virtual channel pair");
        vdim_base_.push_back(num_virtual_dims_);
        for (int vc = 0; vc < vcs_[p]; ++vc) {
            phys_of_vdim_.push_back(static_cast<int>(p));
            vc_of_vdim_.push_back(vc);
            ++num_virtual_dims_;
        }
    }
    TM_ASSERT(num_virtual_dims_ < 64, "too many virtual dimensions");
}

VirtualizedMesh
VirtualizedMesh::doubleY(int m, int n)
{
    return VirtualizedMesh(Shape{m, n}, {1, 2});
}

VirtualizedMesh
VirtualizedMesh::uniform(Shape physical_shape, int v)
{
    std::vector<int> vcs(physical_shape.size(), v);
    return VirtualizedMesh(std::move(physical_shape), std::move(vcs));
}

int
VirtualizedMesh::radix(int dim) const
{
    return shape_[static_cast<std::size_t>(physicalDim(dim))];
}

int
VirtualizedMesh::physicalDim(int vdim) const
{
    return phys_of_vdim_[static_cast<std::size_t>(vdim)];
}

int
VirtualizedMesh::vcIndex(int vdim) const
{
    return vc_of_vdim_[static_cast<std::size_t>(vdim)];
}

int
VirtualizedMesh::virtualDim(int pdim, int vc) const
{
    TM_ASSERT(vc >= 0 && vc < vcsOf(pdim), "vc index out of range");
    return vdim_base_[static_cast<std::size_t>(pdim)] + vc;
}

Direction
VirtualizedMesh::physicalDirection(Direction vdir) const
{
    return Direction(static_cast<std::uint8_t>(physicalDim(vdir.dim)),
                     vdir.positive);
}

std::optional<NodeId>
VirtualizedMesh::neighbor(NodeId node, Direction dir) const
{
    return step(node, physicalDim(dir.dim), dir.positive);
}

bool
VirtualizedMesh::isWraparound(NodeId, Direction) const
{
    return false;
}

std::string
VirtualizedMesh::name() const
{
    std::string out;
    for (std::size_t p = 0; p < shape_.size(); ++p) {
        if (p > 0)
            out += 'x';
        out += std::to_string(shape_[p]);
    }
    out += " mesh (vcs";
    for (int v : vcs_)
        out += ' ' + std::to_string(v);
    return out + ")";
}

int
VirtualizedMesh::distance(NodeId a, NodeId b) const
{
    int dist = 0;
    for (int p = 0; p < numPhysicalDims(); ++p)
        dist += std::abs(coordAt(a, p) - coordAt(b, p));
    return dist;
}

int
VirtualizedMesh::diameter() const
{
    int diam = 0;
    for (int k : shape_)
        diam += k - 1;
    return diam;
}

DirId
VirtualizedMesh::physicalChannelGroup(DirId dir) const
{
    const Direction v = Direction::fromId(dir);
    return Direction(static_cast<std::uint8_t>(physicalDim(v.dim)),
                     v.positive).id();
}

bool
VirtualizedMesh::hasSharedPhysicalChannels() const
{
    return num_virtual_dims_ > numPhysicalDims();
}

} // namespace turnmodel
