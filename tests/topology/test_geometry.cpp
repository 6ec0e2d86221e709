/**
 * @file
 * Differential test of the stride-based grid geometry. For every
 * node, direction and node pair of small shapes, neighbor(),
 * distance(), isWraparound() and coordAt() must equal a reference
 * computed here from coordsOf()/nodeAt() — the coordinate-vector
 * arithmetic the topologies used before they switched to strides.
 */

#include <cstdlib>
#include <functional>
#include <optional>

#include <gtest/gtest.h>

#include "topology/channel.hpp"
#include "topology/faults.hpp"
#include "topology/hex.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/oct.hpp"
#include "topology/torus.hpp"
#include "topology/virtual_channels.hpp"
#include "util/rng.hpp"

namespace turnmodel {
namespace {

/** Reference geometry, phrased on coordinate vectors. */
struct Reference
{
    /** Coordinates one hop away, or nullopt when there is no hop. */
    std::function<std::optional<Coords>(const Coords &, Direction)> hop;
    std::function<int(const Coords &, const Coords &)> distance;
    std::function<bool(const Coords &, Direction)> wraps =
        [](const Coords &, Direction) { return false; };
};

void
checkGeometry(const Topology &topo, const Reference &ref)
{
    SCOPED_TRACE(topo.name());
    const Shape &shape = topo.shape();
    for (NodeId v = 0; v < topo.numNodes(); ++v) {
        const Coords c = coordsOf(v, shape);
        for (std::size_t p = 0; p < shape.size(); ++p)
            ASSERT_EQ(topo.coordAt(v, static_cast<int>(p)), c[p]) << v;
        for (Direction d : allDirections(topo.numDims())) {
            const auto to = ref.hop(c, d);
            const std::optional<NodeId> expected =
                to ? std::make_optional(nodeAt(*to, shape)) : std::nullopt;
            ASSERT_EQ(topo.neighbor(v, d), expected)
                << v << " " << directionName(d);
            ASSERT_EQ(topo.isWraparound(v, d), ref.wraps(c, d))
                << v << " " << directionName(d);
        }
        for (NodeId w = 0; w < topo.numNodes(); ++w) {
            ASSERT_EQ(topo.distance(v, w),
                      ref.distance(c, coordsOf(w, shape)))
                << v << " " << w;
        }
    }
}

/** Apply a per-dimension delta; nullopt when it leaves the shape. */
std::optional<Coords>
offset(Coords c, const Shape &shape, const std::vector<int> &delta)
{
    for (std::size_t p = 0; p < c.size(); ++p)
        c[p] += delta[p];
    if (!inBounds(c, shape))
        return std::nullopt;
    return c;
}

int
manhattan(const Coords &a, const Coords &b)
{
    int dist = 0;
    for (std::size_t p = 0; p < a.size(); ++p)
        dist += std::abs(a[p] - b[p]);
    return dist;
}

/** Mesh reference; @p phys maps a routing dimension to its grid dim. */
Reference
meshReference(const Shape &shape,
              std::function<int(int)> phys = [](int d) { return d; })
{
    Reference ref;
    ref.hop = [shape, phys](const Coords &c, Direction d) {
        std::vector<int> delta(shape.size(), 0);
        delta[static_cast<std::size_t>(phys(d.dim))] = d.delta();
        return offset(c, shape, delta);
    };
    ref.distance = manhattan;
    return ref;
}

Reference
torusReference(int k)
{
    Reference ref;
    ref.hop = [k](const Coords &c, Direction d) -> std::optional<Coords> {
        Coords to = c;
        int &x = to[d.dim];
        const bool wraps = d.positive ? x == k - 1 : x == 0;
        if (wraps && k == 2)
            return std::nullopt;   // The mesh hop is the only channel.
        x = (x + d.delta() + k) % k;
        return to;
    };
    ref.wraps = [k](const Coords &c, Direction d) {
        return d.positive ? c[d.dim] == k - 1 : c[d.dim] == 0;
    };
    ref.distance = [k](const Coords &a, const Coords &b) {
        int dist = 0;
        for (std::size_t p = 0; p < a.size(); ++p) {
            const int direct = std::abs(a[p] - b[p]);
            dist += std::min(direct, k - direct);
        }
        return dist;
    };
    return ref;
}

TEST(Geometry, Mesh2D)
{
    for (const Shape &shape : {Shape{2, 2}, Shape{5, 4}, Shape{3, 7}}) {
        const NDMesh mesh(shape);
        checkGeometry(mesh, meshReference(shape));
    }
}

TEST(Geometry, Mesh3D)
{
    for (const Shape &shape : {Shape{3, 4, 5}, Shape{2, 3, 2}}) {
        const NDMesh mesh(shape);
        checkGeometry(mesh, meshReference(shape));
    }
}

TEST(Geometry, Hypercube)
{
    for (int n = 4; n <= 6; ++n) {
        const Hypercube cube(n);
        checkGeometry(cube, meshReference(cube.shape()));
    }
}

TEST(Geometry, KAryNCube)
{
    for (const auto &[k, n] : {std::pair{2, 4}, std::pair{3, 2},
                               std::pair{4, 3}, std::pair{5, 2}}) {
        const KAryNCube torus(k, n);
        checkGeometry(torus, torusReference(k));
    }
}

TEST(Geometry, VirtualizedMesh)
{
    const VirtualizedMesh uniform = VirtualizedMesh::uniform({5, 4}, 2);
    checkGeometry(uniform,
                  meshReference(uniform.shape(), [&](int vdim) {
                      return uniform.physicalDim(vdim);
                  }));
    const VirtualizedMesh cube = VirtualizedMesh::uniform({3, 3, 2}, 3);
    checkGeometry(cube, meshReference(cube.shape(), [&](int vdim) {
                      return cube.physicalDim(vdim);
                  }));
    const VirtualizedMesh double_y = VirtualizedMesh::doubleY(4, 5);
    checkGeometry(double_y,
                  meshReference(double_y.shape(), [&](int vdim) {
                      return double_y.physicalDim(vdim);
                  }));
}

TEST(Geometry, HexMesh)
{
    for (const auto &[kq, kr] : {std::pair{4, 5}, std::pair{2, 3}}) {
        const HexMesh hex(kq, kr);
        Reference ref;
        const Shape shape = hex.shape();
        ref.hop = [shape](const Coords &c, Direction d) {
            const auto [dq, dr] = HexMesh::axialDelta(d);
            return offset(c, shape, {dq, dr});
        };
        ref.distance = [](const Coords &a, const Coords &b) {
            const int dq = b[0] - a[0];
            const int dr = b[1] - a[1];
            return (std::abs(dq) + std::abs(dr) + std::abs(dq + dr)) / 2;
        };
        checkGeometry(hex, ref);
    }
}

TEST(Geometry, OctMesh)
{
    for (const auto &[m, n] : {std::pair{5, 4}, std::pair{2, 3}}) {
        const OctMesh oct(m, n);
        Reference ref;
        const Shape shape = oct.shape();
        ref.hop = [shape](const Coords &c, Direction d) {
            const auto [dx, dy] = OctMesh::gridDelta(d);
            return offset(c, shape, {dx, dy});
        };
        ref.distance = [](const Coords &a, const Coords &b) {
            return std::max(std::abs(b[0] - a[0]), std::abs(b[1] - a[1]));
        };
        checkGeometry(oct, ref);
    }
}

TEST(Geometry, FaultDegradedMesh)
{
    const NDMesh mesh = NDMesh::mesh2D(5, 5);
    Rng rng(7);
    const FaultyTopology faulty =
        FaultyTopology::withRandomFaults(mesh, 12, rng);
    const ChannelSpace space(mesh);
    Reference ref = meshReference(mesh.shape());
    const auto healthy = ref.hop;
    ref.hop = [&](const Coords &c, Direction d) -> std::optional<Coords> {
        const ChannelId ch = space.id(nodeAt(c, mesh.shape()), d);
        if (faulty.faults().count(ch) > 0)
            return std::nullopt;
        return healthy(c, d);
    };
    checkGeometry(faulty, ref);
}

TEST(GeometryDeathTest, QueriesCheckTheNodeRange)
{
    const NDMesh mesh = NDMesh::mesh2D(4, 4);
    EXPECT_DEATH({ (void)mesh.coordAt(16, 0); }, "outside of shape");
    EXPECT_DEATH({ (void)mesh.neighbor(16, dir2d::West); },
                 "outside of shape");
    EXPECT_DEATH({ (void)mesh.distance(0, 16); }, "outside of shape");
    const KAryNCube torus(4, 2);
    EXPECT_DEATH({ (void)torus.neighbor(16, dir2d::East); },
                 "outside of shape");
}

} // namespace
} // namespace turnmodel
