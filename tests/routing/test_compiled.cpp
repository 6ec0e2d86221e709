/**
 * @file
 * Differential tests for CompiledRoutingTable: on every topology in
 * the sweep, every factory algorithm's compiled snapshot must agree
 * bit-for-bit with the live algorithm — through routeSet(), through
 * the raw lookup(), and against the legacy route() vector adapter —
 * for every (current, in_dir, dest) triple. Algorithms that decide by
 * sign compile to 3^n-entry sign-class tables on full grids; the same
 * comparison is the executable check that the class layout loses
 * nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/routing/compiled.hpp"
#include "core/routing/factory.hpp"
#include "topology/faults.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace turnmodel {
namespace {

void
expectBitForBitEqual(const RoutingAlgorithm &live,
                     const CompiledRoutingTable &table)
{
    const Topology &topo = live.topology();
    const int num_dirs = topo.numDirs();
    for (NodeId cur = 0; cur < topo.numNodes(); ++cur) {
        for (NodeId dest = 0; dest < topo.numNodes(); ++dest) {
            if (cur == dest)
                continue;
            // Injection state plus every arrival direction.
            for (int state = 0; state <= num_dirs; ++state) {
                const std::optional<Direction> in = state == 0
                    ? std::nullopt
                    : std::make_optional(Direction::fromId(
                          static_cast<DirId>(state - 1)));
                const DirectionSet want = live.routeSet(cur, in, dest);
                const DirectionSet got = table.routeSet(cur, in, dest);
                ASSERT_EQ(got, want)
                    << live.name() << " on " << topo.name() << " at "
                    << cur << " in-state " << state << " dest " << dest
                    << ": table " << toString(got) << " vs live "
                    << toString(want);
                ASSERT_EQ(table.lookup(cur, state, dest), want);
                // The legacy vector adapter sees the same decision in
                // ascending id order.
                ASSERT_EQ(DirectionSet::of(live.route(cur, in, dest)),
                          want);
            }
        }
    }
}

void
sweepTopology(const Topology &topo)
{
    for (const std::string &name : availableRoutingNames(topo)) {
        SCOPED_TRACE(topo.name() + " / " + name);
        const RoutingPtr live = makeRouting(name, topo);
        const CompiledRoutingTable table(*live);
        expectBitForBitEqual(*live, table);
    }
}

TEST(CompiledRouting, MatchesEveryAlgorithmOnMesh8x8)
{
    sweepTopology(NDMesh({8, 8}));
}

TEST(CompiledRouting, MatchesEveryAlgorithmOnTorus8x8)
{
    sweepTopology(KAryNCube(8, 2));
}

TEST(CompiledRouting, MatchesEveryAlgorithmOnSixCube)
{
    sweepTopology(Hypercube(6));
}

TEST(CompiledRouting, FactoryPrefixBuildsTable)
{
    const NDMesh mesh({4, 4});
    const RoutingPtr routing = makeRouting("compiled:odd-even", mesh);
    const auto *table =
        dynamic_cast<const CompiledRoutingTable *>(routing.get());
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->name(), "compiled:odd-even");
    EXPECT_TRUE(table->isMinimal());
    EXPECT_TRUE(table->isInputDependent());
    EXPECT_EQ(&table->topology(), static_cast<const Topology *>(&mesh));
    EXPECT_EQ(table->statesPerNode(), mesh.numDirs() + 1);
    EXPECT_EQ(table->entries(),
              static_cast<std::size_t>(16) * 5 * 16);
    EXPECT_EQ(table->sizeBytes(), table->entries() * 4);
    EXPECT_TRUE(table->allPairsRoutable());
}

TEST(CompiledRouting, InputIndependentSourcesCollapseToOneState)
{
    // A torus is no full grid, so xy there stays dense: one shared
    // row per node instead of numDirs + 1.
    const KAryNCube torus(5, 2);
    const RoutingPtr torus_xy = makeRouting("xy", torus);
    ASSERT_FALSE(torus_xy->isInputDependent());
    const CompiledRoutingTable dense(*torus_xy);
    EXPECT_FALSE(dense.isClassTable());
    EXPECT_EQ(dense.statesPerNode(), 1);
    EXPECT_EQ(dense.entries(), static_cast<std::size_t>(25) * 25);
    expectBitForBitEqual(*torus_xy, dense);

    // On the mesh, the one shared row shrinks to the 3^2 sign classes.
    const NDMesh mesh({5, 5});
    const RoutingPtr xy = makeRouting("xy", mesh);
    const CompiledRoutingTable table(*xy);
    EXPECT_TRUE(table.isClassTable());
    EXPECT_EQ(table.statesPerNode(), 1);
    EXPECT_EQ(table.entries(), 9u);
    expectBitForBitEqual(*xy, table);
}

/** Names of availableRoutingNames(@p topo) that decide by sign, each
 * checked against its sign-class table on every triple. */
std::set<std::string>
checkSignClassTables(const Topology &topo)
{
    std::set<std::string> by_sign;
    std::size_t classes = 1;
    for (int d = 0; d < topo.numDims(); ++d)
        classes *= 3;
    for (const std::string &name : availableRoutingNames(topo)) {
        SCOPED_TRACE(topo.name() + " / " + name);
        const RoutingPtr live = makeRouting(name, topo);
        const CompiledRoutingTable table(*live);
        EXPECT_EQ(table.decidesBySign(), live->decidesBySign());
        EXPECT_EQ(table.isClassTable(), live->decidesBySign());
        if (!live->decidesBySign())
            continue;
        by_sign.insert(name);
        EXPECT_EQ(table.entries(),
                  static_cast<std::size_t>(table.statesPerNode())
                      * classes);
        // Plus one packed coordinate key per node.
        EXPECT_EQ(table.sizeBytes(),
                  table.entries() * sizeof(DirectionSet)
                      + static_cast<std::size_t>(topo.numNodes())
                          * sizeof(std::uint64_t));
        expectBitForBitEqual(*live, table);
        EXPECT_TRUE(table.allPairsRoutable());
    }
    return by_sign;
}

TEST(CompiledRouting, SignClassTablesMatchTheirSourcesOnMeshes)
{
    const std::set<std::string> planar = {"xy", "west-first",
                                          "north-last", "negative-first",
                                          "abonf", "abopl"};
    EXPECT_EQ(checkSignClassTables(NDMesh({3, 5})), planar);
    EXPECT_EQ(checkSignClassTables(NDMesh({8, 8})), planar);
    // Radix 2 everywhere: the factory calls dimension order e-cube.
    EXPECT_EQ(checkSignClassTables(NDMesh({2, 2})),
              (std::set<std::string>{"e-cube", "west-first",
                                     "north-last", "negative-first",
                                     "abonf", "abopl"}));
    EXPECT_EQ(checkSignClassTables(NDMesh({3, 4, 2})),
              (std::set<std::string>{"dimension-order", "negative-first",
                                     "abonf", "abopl"}));
}

TEST(CompiledRouting, SignClassKeysWithFullWidthFields)
{
    // The widest fields a 4-D key holds: 14-bit coordinates in four
    // 15-bit fields, so digit 2 of the last dimension reaches bit 60.
    const NDMesh mesh({16384, 2, 2, 2});
    std::vector<NodeId> probes;
    for (int x : {0, 1, 8191, 8192, 16382, 16383}) {
        for (NodeId rest = 0; rest < 8; ++rest) {
            probes.push_back(mesh.node(
                Coords{x, static_cast<int>(rest & 1),
                       static_cast<int>((rest >> 1) & 1),
                       static_cast<int>(rest >> 2)}));
        }
    }
    for (const std::string &name : availableRoutingNames(mesh)) {
        const RoutingPtr live = makeRouting(name, mesh);
        if (!live->decidesBySign())
            continue;
        SCOPED_TRACE(name);
        const CompiledRoutingTable table(*live);
        ASSERT_TRUE(table.isClassTable());
        for (NodeId src : probes) {
            for (NodeId dst : probes) {
                if (src == dst)
                    continue;
                for (int state = 0; state <= mesh.numDirs(); ++state) {
                    const std::optional<Direction> in = state == 0
                        ? std::nullopt
                        : std::optional<Direction>(Direction::fromId(
                              static_cast<DirId>(state - 1)));
                    ASSERT_EQ(table.lookup(src, state, dst),
                              live->routeSet(src, in, dst))
                        << src << " -> " << dst << " state " << state;
                }
            }
        }
    }
}

TEST(CompiledRouting, SignDecidersStayDenseWhenKeysDoNotFit)
{
    // Seven radix-2 fields need 3^7 class numbers: 12 bits each,
    // 84 bits in all.
    const Hypercube cube(7);
    const RoutingPtr live = makeRouting("e-cube", cube);
    ASSERT_TRUE(live->decidesBySign());
    const CompiledRoutingTable table(*live);
    EXPECT_FALSE(table.isClassTable());
    EXPECT_EQ(table.entries(), static_cast<std::size_t>(128) * 128);
    expectBitForBitEqual(*live, table);
}

TEST(CompiledRouting, SignClassTablesMatchTheirSourcesOnHypercubes)
{
    for (int n = 2; n <= 6; ++n) {
        std::set<std::string> want = {"e-cube", "negative-first", "abonf",
                                      "abopl", "p-cube"};
        if (n == 2)
            want.insert({"west-first", "north-last"});
        EXPECT_EQ(checkSignClassTables(Hypercube(n)), want) << n;
    }
}

TEST(CompiledRouting, SignDecidersStayDenseOffTheFullGrid)
{
    const NDMesh mesh({4, 4});
    const FaultyTopology no_faults(mesh, {});
    const RoutingPtr degraded = makeRouting("negative-first", no_faults);
    ASSERT_TRUE(degraded->decidesBySign());
    const CompiledRoutingTable table(*degraded);
    EXPECT_FALSE(table.isClassTable());
    EXPECT_EQ(table.entries(), static_cast<std::size_t>(16) * 16);
    expectBitForBitEqual(*degraded, table);
}

TEST(CompiledRouting, WestFirstOn128x128IsTiny)
{
    // The dense table would hold 128^4 entries: 1 GiB. The class
    // table holds 9 entries and one 64-bit coordinate key per node:
    // 128 KiB and 36 bytes.
    const NDMesh mesh({128, 128});
    const RoutingPtr live = makeRouting("west-first", mesh);
    const CompiledRoutingTable table(*live);
    ASSERT_TRUE(table.isClassTable());
    EXPECT_EQ(table.entries(), 9u);
    EXPECT_EQ(table.sizeBytes(), 9u * sizeof(DirectionSet)
                                     + 128u * 128u * sizeof(std::uint64_t));
    // Every destination from a spread of sources and the four
    // corners, through both lookup paths.
    std::vector<NodeId> sources = {0, 127, mesh.numNodes() - 128,
                                   mesh.numNodes() - 1};
    for (NodeId src = 1; src < mesh.numNodes(); src += 1021)
        sources.push_back(src);
    for (NodeId src : sources) {
        for (NodeId dest = 0; dest < mesh.numNodes(); ++dest) {
            if (src == dest)
                continue;
            const DirectionSet want =
                live->routeSet(src, std::nullopt, dest);
            ASSERT_EQ(table.lookup(src, 0, dest), want)
                << src << " -> " << dest;
            ASSERT_EQ(table.routeSet(src, dir2d::East, dest), want);
        }
    }
}

TEST(CompiledRouting, CompilingACompiledTableIsExact)
{
    const NDMesh mesh({4, 4});
    const RoutingPtr live = makeRouting("negative-first", mesh);
    const CompiledRoutingTable once(*live);
    // Snapshot through the base interface (a plain `twice(once)`
    // would be the copy constructor instead).
    const RoutingAlgorithm &as_algorithm = once;
    const CompiledRoutingTable twice(as_algorithm);
    EXPECT_EQ(twice.name(), "compiled:compiled:negative-first");
    expectBitForBitEqual(*live, twice);
}

TEST(CompiledRouting, SynthesizedSpecsCompileToo)
{
    const NDMesh mesh({4, 4});
    const RoutingPtr live = makeRouting(
        "compiled:synth:north->west,south->west", mesh);
    const auto *table =
        dynamic_cast<const CompiledRoutingTable *>(live.get());
    ASSERT_NE(table, nullptr);
    EXPECT_TRUE(table->allPairsRoutable());
}

} // namespace
} // namespace turnmodel
