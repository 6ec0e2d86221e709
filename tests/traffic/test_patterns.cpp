/**
 * @file
 * Unit tests for the traffic patterns of Section 6 and the extension
 * patterns, including the paper's average path lengths: 10.61 hops
 * for uniform and 11.34 for transpose on the 16x16 mesh; 4.01 for
 * uniform and 4.27 for reverse-flip on the 8-cube.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/pattern.hpp"
#include "traffic/permutation.hpp"
#include "traffic/uniform.hpp"

namespace turnmodel {
namespace {

TEST(Uniform, NeverSelfAndInRange)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    UniformTraffic uniform(mesh);
    Rng rng(1);
    for (NodeId src = 0; src < mesh.numNodes(); ++src) {
        for (int i = 0; i < 100; ++i) {
            const auto d = uniform.destination(src, rng);
            ASSERT_TRUE(d.has_value());
            EXPECT_NE(*d, src);
            EXPECT_LT(*d, mesh.numNodes());
        }
    }
}

TEST(Uniform, CoversAllDestinations)
{
    NDMesh mesh = NDMesh::mesh2D(3, 3);
    UniformTraffic uniform(mesh);
    Rng rng(2);
    std::set<NodeId> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(*uniform.destination(0, rng));
    EXPECT_EQ(seen.size(), mesh.numNodes() - 1);
}

TEST(Uniform, RoughlyEqualProbabilities)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    UniformTraffic uniform(mesh);
    Rng rng(3);
    std::vector<int> counts(mesh.numNodes(), 0);
    constexpr int kDraws = 150000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[*uniform.destination(5, rng)];
    for (NodeId v = 0; v < mesh.numNodes(); ++v) {
        if (v == 5) {
            EXPECT_EQ(counts[v], 0);
            continue;
        }
        const double expected = kDraws / 15.0;
        EXPECT_NEAR(counts[v], expected, expected * 0.1);
    }
}

TEST(MeshTranspose, AntiDiagonalReflection)
{
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    MeshTransposeTraffic transpose(mesh);
    EXPECT_EQ(transpose.map(mesh.node({0, 0})), mesh.node({15, 15}));
    EXPECT_EQ(transpose.map(mesh.node({3, 5})), mesh.node({10, 12}));
    EXPECT_EQ(transpose.map(mesh.node({15, 0})), mesh.node({15, 0}));
}

TEST(MeshTranspose, IsInvolution)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    MeshTransposeTraffic transpose(mesh);
    for (NodeId v = 0; v < mesh.numNodes(); ++v)
        EXPECT_EQ(transpose.map(transpose.map(v)), v);
}

TEST(MeshTranspose, IsBijective)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    EXPECT_TRUE(MeshTransposeTraffic(mesh).isBijective());
}

TEST(MeshTranspose, AntiDiagonalNodesSendNothing)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    MeshTransposeTraffic transpose(mesh);
    Rng rng(1);
    int silent = 0;
    for (NodeId v = 0; v < mesh.numNodes(); ++v) {
        if (!transpose.destination(v, rng))
            ++silent;
    }
    EXPECT_EQ(silent, 8);
}

TEST(MeshTranspose, DeltasShareSign)
{
    // The property that makes negative-first fully adaptive on this
    // pattern (see Figure 14).
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    MeshTransposeTraffic transpose(mesh);
    for (NodeId v = 0; v < mesh.numNodes(); ++v) {
        const Coords s = mesh.coords(v);
        const Coords d = mesh.coords(transpose.map(v));
        const int dx = d[0] - s[0];
        const int dy = d[1] - s[1];
        EXPECT_GE(dx * dy, 0) << "node " << v;
    }
}

TEST(HypercubeTranspose, MatchesPaperFormula)
{
    // (x0..x7) -> (~x4, x5, x6, x7, ~x0, x1, x2, x3).
    Hypercube cube(8);
    HypercubeTransposeTraffic transpose(cube);
    for (NodeId v = 0; v < cube.numNodes(); v += 3) {
        const NodeId d = transpose.map(v);
        for (int i = 0; i < 8; ++i) {
            const bool src_bit = (v >> ((i + 4) % 8)) & 1;
            const bool expect = (i % 4 == 0) ? !src_bit : src_bit;
            EXPECT_EQ(((d >> i) & 1) != 0, expect)
                << "node " << v << " bit " << i;
        }
    }
}

TEST(HypercubeTranspose, IsBijective)
{
    Hypercube cube(8);
    EXPECT_TRUE(HypercubeTransposeTraffic(cube).isBijective());
}

TEST(ReverseFlip, MatchesPaperFormula)
{
    // (x0..x7) -> (~x7 ... ~x0).
    Hypercube cube(8);
    ReverseFlipTraffic flip(cube);
    EXPECT_EQ(flip.map(0b00000000), 0b11111111u);
    EXPECT_EQ(flip.map(0b11111111), 0b00000000u);
    EXPECT_EQ(flip.map(0b10000000), 0b11111110u);
    EXPECT_EQ(flip.map(0b00000001), 0b01111111u);
}

TEST(ReverseFlip, IsInvolutionAndBijective)
{
    Hypercube cube(8);
    ReverseFlipTraffic flip(cube);
    for (NodeId v = 0; v < cube.numNodes(); ++v)
        EXPECT_EQ(flip.map(flip.map(v)), v);
    EXPECT_TRUE(flip.isBijective());
}

TEST(ReverseFlip, SixteenSelfSenders)
{
    // x_i = ~x_{7-i} pairs leave 2^4 fixed points on the 8-cube.
    Hypercube cube(8);
    ReverseFlipTraffic flip(cube);
    int fixed = 0;
    for (NodeId v = 0; v < cube.numNodes(); ++v) {
        if (flip.map(v) == v)
            ++fixed;
    }
    EXPECT_EQ(fixed, 16);
}

TEST(BitComplement, ReflectsAllCoordinates)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    BitComplementTraffic complement(mesh);
    EXPECT_EQ(complement.map(mesh.node({0, 0})), mesh.node({7, 7}));
    EXPECT_EQ(complement.map(mesh.node({2, 5})), mesh.node({5, 2}));
    EXPECT_TRUE(complement.isBijective());
}

TEST(BitComplement, SharedAcrossThreadsGivesEveryThreadTheMap)
{
    // Parallel sweep points share one pattern; its memoized
    // destination table must be complete before any thread reads it.
    const NDMesh mesh = NDMesh::mesh2D(64, 64);
    const BitComplementTraffic complement(mesh);
    std::vector<std::vector<NodeId>> seen(4);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            Rng rng(t);
            while (!go.load())
                std::this_thread::yield();
            // Stagger the readers so later ones arrive mid-fill.
            std::this_thread::sleep_for(std::chrono::microseconds(40 * t));
            for (NodeId v = 0; v < mesh.numNodes(); ++v)
                seen[t].push_back(complement.destination(v, rng).value_or(v));
        });
    }
    go.store(true);
    for (std::thread &thread : threads)
        thread.join();
    for (const std::vector<NodeId> &dests : seen) {
        for (NodeId v = 0; v < mesh.numNodes(); ++v)
            EXPECT_EQ(dests[v], complement.map(v)) << v;
    }
}

TEST(BitReversal, ReversesAddressBits)
{
    Hypercube cube(6);
    BitReversalTraffic reversal(cube);
    EXPECT_EQ(reversal.map(0b000001), 0b100000u);
    EXPECT_EQ(reversal.map(0b110000), 0b000011u);
    EXPECT_TRUE(reversal.isBijective());
}

TEST(Shuffle, RotatesAddress)
{
    Hypercube cube(4);
    ShuffleTraffic shuffle(cube);
    EXPECT_EQ(shuffle.map(0b0001), 0b0010u);
    EXPECT_EQ(shuffle.map(0b1000), 0b0001u);
    EXPECT_TRUE(shuffle.isBijective());
}

TEST(Tornado, HalfwayAroundEachRing)
{
    KAryNCube torus(8, 2);
    TornadoTraffic tornado(torus);
    EXPECT_EQ(tornado.map(torus.node({0, 0})), torus.node({3, 3}));
    EXPECT_EQ(tornado.map(torus.node({6, 1})), torus.node({1, 4}));
    EXPECT_TRUE(tornado.isBijective());
}

TEST(Hotspot, FractionReachesHotspot)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    const NodeId spot = mesh.node({4, 4});
    HotspotTraffic hotspot(mesh, {spot}, 0.25);
    Rng rng(9);
    int hits = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        if (*hotspot.destination(0, rng) == spot)
            ++hits;
    }
    // 25% direct plus a uniform share of the remainder.
    const double expected = 0.25 + 0.75 / 63.0;
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, expected, 0.01);
}

TEST(Hotspot, NameIncludesFraction)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    HotspotTraffic hotspot(mesh, {0}, 0.2);
    EXPECT_EQ(hotspot.name(), "hotspot:0.2");
}

TEST(AverageDistance, PaperMeshNumbers)
{
    // Section 6: 10.61 hops uniform vs 11.34 transpose (16x16 mesh).
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    Rng rng(4);
    const double uniform =
        UniformTraffic(mesh).averageDistance(mesh, rng, 128);
    EXPECT_NEAR(uniform, 10.67, 0.15);
    const double transpose =
        MeshTransposeTraffic(mesh).averageDistance(mesh, rng);
    EXPECT_NEAR(transpose, 11.33, 0.01);
    EXPECT_GT(transpose, uniform);
}

TEST(AverageDistance, PaperCubeNumbers)
{
    // Section 6: 4.01 hops uniform vs 4.27 reverse-flip (8-cube).
    Hypercube cube(8);
    Rng rng(5);
    const double uniform =
        UniformTraffic(cube).averageDistance(cube, rng, 128);
    EXPECT_NEAR(uniform, 4.02, 0.05);
    const double flip =
        ReverseFlipTraffic(cube).averageDistance(cube, rng);
    EXPECT_NEAR(flip, 4.27, 0.01);
    EXPECT_GT(flip, uniform);
}

TEST(Factory, MakesEveryAdvertisedPattern)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    for (const auto &name : availablePatternNames(mesh))
        EXPECT_NE(makePattern(name, mesh), nullptr) << name;
    Hypercube cube(8);
    for (const auto &name : availablePatternNames(cube))
        EXPECT_NE(makePattern(name, cube), nullptr) << name;
}

TEST(Factory, TransposeDispatchesByTopology)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    Hypercube cube(8);
    // Both are called "transpose" but dispatch to different
    // implementations; check one discriminating value each.
    auto mesh_t = makePattern("transpose", mesh);
    Rng rng(6);
    EXPECT_EQ(*mesh_t->destination(mesh.node({0, 0}), rng),
              mesh.node({7, 7}));
    auto cube_t = makePattern("transpose", cube);
    // Node 0: bits all zero -> dest has bits 0 and 4 set.
    EXPECT_EQ(*cube_t->destination(0, rng), 0b00010001u);
}

TEST(FactoryDeathTest, UnknownPatternIsFatal)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    EXPECT_EXIT({ (void)makePattern("pathological", mesh); },
                ::testing::ExitedWithCode(1), "unknown traffic");
}

} // namespace
} // namespace turnmodel
