/**
 * @file
 * Proof that the steady-state hot loop does not touch the heap.
 *
 * This test lives in its own binary: it replaces the global
 * operator new/delete with counting versions, and that replacement
 * must not leak into unrelated suites. The counters only run while
 * `counting` is armed, so gtest's own bookkeeping stays invisible.
 *
 * Method: warm a network past every high-water mark (pool slots,
 * source-queue rings, per-cycle scratch, completion buffers), then
 * assert that thousands of further step()/drainCompletions() cycles
 * perform literally zero allocations. Scenarios cover the plain
 * mesh path, the observer-on path (channel counters + trace ring),
 * the virtual-channel path whose physical-wire arbitration has its
 * own scratch state, the congestion-reading selection policies, and
 * the credit VC router's switch allocator.
 *
 * The same counters pin the grid geometry: neighbor(), distance(),
 * isWraparound() and coordAt() of every grid topology, and routeSet()
 * of the coordinate-reading routing algorithms, allocate nothing —
 * the property that makes compiling a routing table cheap — and so
 * does a sweep over a compiled sign-class table.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/routing/compiled.hpp"
#include "core/routing/factory.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/hex.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/oct.hpp"
#include "topology/torus.hpp"
#include "topology/virtual_channels.hpp"
#include "traffic/pattern.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace turnmodel;

/**
 * Run @p warmup cycles to reach every high-water mark (the run is
 * deterministic for a fixed seed, so a warmup that covers the marks
 * once covers them always), then count
 * allocations over @p measured further cycles (draining completions
 * into a reused buffer each cycle, as the measurement driver does).
 */
std::uint64_t
allocationsInSteadyState(NetworkEngine &net, std::uint64_t warmup,
                         std::uint64_t measured)
{
    std::vector<Completion> done;
    for (std::uint64_t c = 0; c < warmup; ++c) {
        net.step();
        net.drainCompletions(done);
    }
    allocations.store(0);
    counting.store(true);
    for (std::uint64_t c = 0; c < measured; ++c) {
        net.step();
        net.drainCompletions(done);
    }
    counting.store(false);
    return allocations.load();
}

TEST(ZeroAlloc, MeshSteadyStateStepIsAllocationFree)
{
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("xy", mesh);
    const PatternPtr pattern = makePattern("uniform", mesh);
    SimConfig cfg;
    cfg.injection_rate = 0.10;
    Network net(*routing, *pattern, cfg);
    EXPECT_EQ(allocationsInSteadyState(net, 20000, 3000), 0u);
}

TEST(ZeroAlloc, AdaptiveRoutingPathIsAllocationFree)
{
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("west-first", mesh);
    const PatternPtr pattern = makePattern("transpose", mesh);
    SimConfig cfg;
    cfg.injection_rate = 0.08;
    Network net(*routing, *pattern, cfg);
    EXPECT_EQ(allocationsInSteadyState(net, 20000, 3000), 0u);
}

TEST(ZeroAlloc, ObserverOnPathIsAllocationFree)
{
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("xy", mesh);
    const PatternPtr pattern = makePattern("uniform", mesh);
    SimConfig cfg;
    cfg.injection_rate = 0.10;
    cfg.obs.channel_counters = true;
    cfg.obs.trace_capacity = 4096;
    Network net(*routing, *pattern, cfg);
    EXPECT_EQ(allocationsInSteadyState(net, 20000, 3000), 0u);
}

TEST(ZeroAlloc, PhysicalChannelArbitrationIsAllocationFree)
{
    const VirtualizedMesh vmesh = VirtualizedMesh::doubleY(8, 8);
    const RoutingPtr routing = makeRouting("mad-y", vmesh);
    const PatternPtr pattern = makePattern("uniform", vmesh);
    SimConfig cfg;
    cfg.injection_rate = 0.12;
    Network net(*routing, *pattern, cfg);
    EXPECT_EQ(allocationsInSteadyState(net, 20000, 3000), 0u);
}

TEST(ZeroAlloc, CongestionPolicyPathIsAllocationFree)
{
    // The regional policy keeps per-shard live-port lists; they are
    // reserved up front, so steady state allocates nothing.
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("west-first", mesh);
    const PatternPtr pattern = makePattern("transpose", mesh);
    for (const char *policy : {"regional", "local-congestion"}) {
        SimConfig cfg;
        cfg.injection_rate = 0.08;
        cfg.selection_policy = policy;
        Network net(*routing, *pattern, cfg);
        EXPECT_EQ(allocationsInSteadyState(net, 20000, 3000), 0u)
            << policy;
    }
}

TEST(ZeroAlloc, VcSwitchAllocationIsAllocationFree)
{
    // Credit VC router on two VCs per direction: the separable
    // allocator's stamped slots and the congestion state are sized
    // at construction, at one shard and at two.
    const VirtualizedMesh vmesh = VirtualizedMesh::uniform({8, 8}, 2);
    const RoutingPtr routing = makeRouting("vc:west-first", vmesh);
    const PatternPtr pattern = makePattern("uniform", vmesh);
    for (unsigned threads : {1u, 2u}) {
        SimConfig cfg;
        cfg.router_model = RouterModel::VcCredit;
        cfg.buffer_depth = 4;
        cfg.injection_rate = 0.15;
        cfg.selection_policy = "regional";
        cfg.sim_threads = threads;
        const auto net = makeEngine(*routing, *pattern, cfg);
        EXPECT_EQ(allocationsInSteadyState(*net, 20000, 3000), 0u)
            << threads << " shards";
    }
}

TEST(ZeroAlloc, SaturatedNetworkOnlyGrowsHighWaterMarks)
{
    // Past saturation the source queues and the packet pool grow
    // without bound, so "zero" is the wrong bar; what must hold is
    // that per-cycle scratch stays flat: allocations come only from
    // capacity doublings, a vanishing fraction of cycles.
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("xy", mesh);
    const PatternPtr pattern = makePattern("uniform", mesh);
    SimConfig cfg;
    cfg.injection_rate = 0.60;
    Network net(*routing, *pattern, cfg);
    const std::uint64_t n = allocationsInSteadyState(net, 20000, 3000);
    EXPECT_LE(n, 64u);
}

/** Heap allocations performed while running @p fn. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&fn)
{
    allocations.store(0);
    counting.store(true);
    fn();
    counting.store(false);
    return allocations.load();
}

TEST(GeometryAlloc, GridQueriesAreAllocationFree)
{
    const NDMesh mesh2 = NDMesh::mesh2D(5, 4);
    const NDMesh mesh3(Shape{3, 4, 2});
    const Hypercube cube(5);
    const KAryNCube torus(4, 2);
    const KAryNCube binary_torus(2, 3);
    const VirtualizedMesh uniform = VirtualizedMesh::uniform({5, 4}, 2);
    const VirtualizedMesh double_y = VirtualizedMesh::doubleY(4, 5);
    const HexMesh hex(4, 5);
    const OctMesh oct(5, 4);
    const Topology *const topologies[] = {&mesh2,   &mesh3,    &cube,
                                          &torus,   &binary_torus,
                                          &uniform, &double_y, &hex,
                                          &oct};
    for (const Topology *topo : topologies) {
        std::uint64_t acc = 0;
        const std::uint64_t n = allocationsDuring([&] {
            for (NodeId v = 0; v < topo->numNodes(); ++v) {
                for (int p = 0; p < static_cast<int>(topo->shape().size());
                     ++p)
                    acc += static_cast<std::uint64_t>(topo->coordAt(v, p));
                for (DirId id = 0; id < topo->numDirs(); ++id) {
                    const Direction d = Direction::fromId(id);
                    acc += topo->neighbor(v, d).value_or(0);
                    acc += topo->isWraparound(v, d) ? 1 : 0;
                }
                for (NodeId w = 0; w < topo->numNodes(); ++w)
                    acc += static_cast<std::uint64_t>(topo->distance(v, w));
            }
        });
        EXPECT_EQ(n, 0u) << topo->name();
        EXPECT_GT(acc, 0u);
    }
}

/**
 * Allocations of one routeSet() sweep over every (node, arrival
 * state, destination) triple — the sweep a compiled table makes. A
 * first, uncounted sweep fills lazily built state (odd-even's
 * reachability tables); the second must not touch the heap.
 */
std::uint64_t
routeSweepAllocations(const RoutingAlgorithm &routing)
{
    const Topology &topo = routing.topology();
    std::uint64_t acc = 0;
    const auto sweep = [&] {
        for (NodeId v = 0; v < topo.numNodes(); ++v) {
            for (NodeId dest = 0; dest < topo.numNodes(); ++dest) {
                if (v == dest)
                    continue;
                acc += routing.routeSet(v, std::nullopt, dest).raw();
                for (DirId id = 0; id < topo.numDirs(); ++id) {
                    acc += routing.routeSet(v, Direction::fromId(id), dest)
                               .raw();
                }
            }
        }
    };
    sweep();
    const std::uint64_t n = allocationsDuring(sweep);
    EXPECT_GT(acc, 0u);
    return n;
}

TEST(GeometryAlloc, PortedRoutingIsAllocationFree)
{
    const NDMesh mesh = NDMesh::mesh2D(5, 4);
    for (const char *name :
         {"xy", "west-first", "north-last", "negative-first", "odd-even",
          "fully-adaptive"}) {
        const RoutingPtr routing = makeRouting(name, mesh);
        EXPECT_EQ(routeSweepAllocations(*routing), 0u) << name;
    }
    const NDMesh mesh3(Shape{3, 4, 2});
    for (const char *name :
         {"dimension-order", "negative-first", "abonf", "abopl"}) {
        const RoutingPtr routing = makeRouting(name, mesh3);
        EXPECT_EQ(routeSweepAllocations(*routing), 0u) << name;
    }
    const KAryNCube torus(5, 2);
    for (const char *name :
         {"torus-negative-first", "wrap-first-hop:west-first"}) {
        const RoutingPtr routing = makeRouting(name, torus);
        EXPECT_EQ(routeSweepAllocations(*routing), 0u) << name;
    }
    const VirtualizedMesh vmesh = VirtualizedMesh::uniform({5, 4}, 2);
    const RoutingPtr escape = makeRouting("vc:west-first", vmesh);
    EXPECT_EQ(routeSweepAllocations(*escape), 0u) << "vc:west-first";
}

TEST(ZeroAlloc, ClassTableRouteSetSweepIsAllocationFree)
{
    const NDMesh mesh = NDMesh::mesh2D(16, 16);
    const NDMesh mesh3(Shape{3, 4, 2});
    const Hypercube cube(5);
    const CompiledRoutingTable tables[] = {
        CompiledRoutingTable(*makeRouting("west-first", mesh)),
        CompiledRoutingTable(*makeRouting("abopl", mesh3)),
        CompiledRoutingTable(*makeRouting("p-cube", cube)),
    };
    for (const CompiledRoutingTable &table : tables) {
        ASSERT_TRUE(table.isClassTable()) << table.name();
        EXPECT_EQ(routeSweepAllocations(table), 0u) << table.name();
    }
}

} // namespace
