/**
 * @file
 * Microbenchmark of routing-decision cost across the three decision
 * paths: the legacy route() vector adapter (one heap allocation per
 * call), the allocation-free routeSet() virtual, and the compiled
 * table's raw lookup(). Section 7 notes that adaptive routing "can
 * require more complex control logic for route selection" — in a
 * software router that cost is this call, so the three paths bound
 * what the DirectionSet refactor and table compilation buy. Each
 * row also times building the compiled table itself (one routeSet()
 * per (node, arrival state, destination) triple of a dense table, one
 * per arrival state and sign class of a sign-class table) and reports
 * its size, including the large tables engine set-up pays for:
 * escape-VC west-first on a 20x20 2-VC mesh (dense) and west-first on
 * 64x64 and 128x128 meshes (sign classes), and the paper's own sizes,
 * a 16x16 mesh and an 8-cube. The analytical machinery
 * (CDG construction, path counting) is timed too, live vs
 * precompiled.
 *
 * Self-timed (steady_clock over batched iterations; no external
 * benchmark dependency). `--json[=PATH]` emits machine-readable
 * results for EXPERIMENTS.md.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptiveness.hpp"
#include "core/channel_dependency.hpp"
#include "core/routing/compiled.hpp"
#include "core/routing/factory.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/virtual_channels.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace turnmodel;

namespace {

/** Pre-drawn random (node, dest) pairs to keep rng out of the loop. */
std::vector<std::pair<NodeId, NodeId>>
samplePairs(const Topology &topo, std::size_t count)
{
    Rng rng(1234);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(count);
    while (pairs.size() < count) {
        const auto a = static_cast<NodeId>(
            rng.nextBounded(topo.numNodes()));
        const auto b = static_cast<NodeId>(
            rng.nextBounded(topo.numNodes()));
        if (a != b)
            pairs.emplace_back(a, b);
    }
    return pairs;
}

/**
 * Time @p fn (which runs `batch` operations per call) until at least
 * ~50 ms have elapsed, and return nanoseconds per operation.
 */
template <typename Fn>
double
nsPerOp(std::size_t batch, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    // Warm caches and get a first estimate.
    fn();
    std::uint64_t ops = batch;
    auto elapsed = Clock::duration::zero();
    while (elapsed < std::chrono::milliseconds(50)) {
        const auto t0 = Clock::now();
        fn();
        elapsed += Clock::now() - t0;
        ops += batch;
    }
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    return ns / static_cast<double>(ops - batch);
}

/** Defeat dead-code elimination without an external dependency. */
std::uint64_t g_sink = 0;

struct PathTimes
{
    std::string topology;
    std::string algorithm;
    double legacy_ns;     ///< route(): vector adapter.
    double route_set_ns;  ///< routeSet(): virtual, allocation free.
    double compiled_ns;   ///< CompiledRoutingTable::lookup().
    double compile_ms;    ///< Median CompiledRoutingTable build.
    double table_kb;      ///< CompiledRoutingTable::sizeBytes() / 1024.
};

/** Table builds per row; compile_ms is their median. */
constexpr int kCompileTrials = 5;

PathTimes
benchDecisionPaths(const Topology &topo, const std::string &name)
{
    using Clock = std::chrono::steady_clock;
    const RoutingPtr routing = makeRouting(name, topo);
    std::vector<double> build_ms;
    std::unique_ptr<CompiledRoutingTable> built;
    for (int trial = 0; trial < kCompileTrials; ++trial) {
        built.reset();
        const auto t0 = Clock::now();
        built = std::make_unique<CompiledRoutingTable>(*routing);
        build_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
    }
    std::nth_element(build_ms.begin(), build_ms.begin() + kCompileTrials / 2,
                     build_ms.end());
    const CompiledRoutingTable &table = *built;
    const auto pairs = samplePairs(topo, 1024);

    PathTimes t;
    t.topology = topo.name();
    t.algorithm = name;
    t.compile_ms = build_ms[kCompileTrials / 2];
    t.table_kb = static_cast<double>(table.sizeBytes()) / 1024.0;
    t.legacy_ns = nsPerOp(pairs.size(), [&] {
        std::uint64_t acc = 0;
        for (const auto &[src, dst] : pairs)
            acc += routing->route(src, std::nullopt, dst).size();
        g_sink += acc;
    });
    t.route_set_ns = nsPerOp(pairs.size(), [&] {
        std::uint64_t acc = 0;
        for (const auto &[src, dst] : pairs)
            acc += static_cast<std::uint64_t>(
                routing->routeSet(src, std::nullopt, dst).raw());
        g_sink += acc;
    });
    t.compiled_ns = nsPerOp(pairs.size(), [&] {
        std::uint64_t acc = 0;
        for (const auto &[src, dst] : pairs)
            acc += static_cast<std::uint64_t>(
                table.lookup(src, 0, dst).raw());
        g_sink += acc;
    });
    return t;
}

struct AnalysisTimes
{
    double cdg_live_ns;        ///< CDG straight from the algorithm.
    double cdg_precompiled_ns; ///< CDG from an existing table.
    double count_live_ns;      ///< Path counting via virtual dispatch.
    double count_compiled_ns;  ///< Path counting via the table.
};

AnalysisTimes
benchAnalysis()
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("west-first", mesh);
    const CompiledRoutingTable table(*routing);
    AnalysisTimes t;
    t.cdg_live_ns = nsPerOp(1, [&] {
        ChannelDependencyGraph cdg(*routing);
        g_sink += cdg.numEdges();
    });
    t.cdg_precompiled_ns = nsPerOp(1, [&] {
        ChannelDependencyGraph cdg(table);
        g_sink += cdg.numEdges();
    });
    const auto pairs = samplePairs(mesh, 64);
    t.count_live_ns = nsPerOp(pairs.size(), [&] {
        for (const auto &[src, dst] : pairs)
            g_sink += countAllowedShortestPaths(*routing, src, dst);
    });
    t.count_compiled_ns = nsPerOp(pairs.size(), [&] {
        for (const auto &[src, dst] : pairs)
            g_sink += countAllowedShortestPaths(table, src, dst);
    });
    return t;
}

void
printText(const std::vector<PathTimes> &rows, const AnalysisTimes &a)
{
    std::cout << "== routing-decision microbenchmark ==\n";
    std::cout << std::left << std::setw(24) << "topology"
              << std::setw(24) << "algorithm" << std::right
              << std::setw(12) << "route() ns" << std::setw(14)
              << "routeSet() ns" << std::setw(13) << "lookup() ns"
              << std::setw(10) << "speedup" << std::setw(12)
              << "compile ms" << std::setw(12) << "table KiB" << "\n";
    for (const PathTimes &t : rows) {
        std::cout << std::left << std::setw(24) << t.topology
                  << std::setw(24) << t.algorithm << std::right
                  << std::fixed << std::setprecision(2)
                  << std::setw(12) << t.legacy_ns << std::setw(14)
                  << t.route_set_ns << std::setw(13) << t.compiled_ns
                  << std::setw(9) << t.legacy_ns / t.compiled_ns
                  << "x" << std::setw(12) << t.compile_ms
                  << std::setw(12) << t.table_kb << "\n";
    }
    std::cout << "== analysis machinery (8x8 mesh west-first) ==\n"
              << std::setprecision(0)
              << "  CDG build:     " << a.cdg_live_ns
              << " ns live, " << a.cdg_precompiled_ns
              << " ns precompiled\n"
              << "  path counting: " << a.count_live_ns
              << " ns live, " << a.count_compiled_ns
              << " ns compiled (per pair)\n";
}

void
writeJson(std::ostream &os, const std::vector<PathTimes> &rows,
          const AnalysisTimes &a)
{
    os << "{\n  \"benchmark\": \"micro_routing\",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PathTimes &t = rows[i];
        os << "    {\"topology\": \"" << jsonEscape(t.topology)
           << "\", \"algorithm\": \"" << jsonEscape(t.algorithm)
           << "\", \"route_ns\": ";
        writeJsonNumber(os, t.legacy_ns);
        os << ", \"route_set_ns\": ";
        writeJsonNumber(os, t.route_set_ns);
        os << ", \"compiled_ns\": ";
        writeJsonNumber(os, t.compiled_ns);
        os << ", \"speedup_compiled_vs_route\": ";
        writeJsonNumber(os, t.legacy_ns / t.compiled_ns);
        os << ", \"speedup_route_set_vs_route\": ";
        writeJsonNumber(os, t.legacy_ns / t.route_set_ns);
        os << ", \"compile_ms\": ";
        writeJsonNumber(os, t.compile_ms);
        os << ", \"table_kb\": ";
        writeJsonNumber(os, t.table_kb);
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"analysis\": {\"cdg_live_ns\": ";
    writeJsonNumber(os, a.cdg_live_ns);
    os << ", \"cdg_precompiled_ns\": ";
    writeJsonNumber(os, a.cdg_precompiled_ns);
    os << ", \"path_count_live_ns\": ";
    writeJsonNumber(os, a.count_live_ns);
    os << ", \"path_count_compiled_ns\": ";
    writeJsonNumber(os, a.count_compiled_ns);
    os << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_path = arg.substr(7);
        } else {
            std::cerr << "usage: micro_routing [--json[=PATH]]\n";
            return 2;
        }
    }

    NDMesh mesh = NDMesh::mesh2D(8, 8);
    Hypercube cube(6);
    std::vector<PathTimes> rows;
    for (const char *name :
         {"xy", "west-first", "north-last", "negative-first",
          "west-first-nonminimal"}) {
        rows.push_back(benchDecisionPaths(mesh, name));
    }
    for (const char *name : {"e-cube", "p-cube"})
        rows.push_back(benchDecisionPaths(cube, name));
    // The sizes of the paper's figures: a 16x16 mesh (a sign-class
    // table) and an 8-cube (dense: its 3^8 class numbers do not fit
    // the packed keys).
    rows.push_back(benchDecisionPaths(NDMesh::mesh2D(16, 16), "west-first"));
    rows.push_back(benchDecisionPaths(Hypercube(8), "p-cube"));
    // The large tables engine set-up builds: the input-dependent
    // escape-VC table grows with the square of the node count, the
    // west-first sign-class tables only with the key array.
    const VirtualizedMesh vc_mesh = VirtualizedMesh::uniform({20, 20}, 2);
    rows.push_back(benchDecisionPaths(vc_mesh, "vc:west-first"));
    const NDMesh big_mesh = NDMesh::mesh2D(64, 64);
    rows.push_back(benchDecisionPaths(big_mesh, "west-first"));
    const NDMesh huge_mesh = NDMesh::mesh2D(128, 128);
    rows.push_back(benchDecisionPaths(huge_mesh, "west-first"));
    const AnalysisTimes analysis = benchAnalysis();

    printText(rows, analysis);
    if (json) {
        if (json_path.empty()) {
            writeJson(std::cout, rows, analysis);
        } else {
            std::ofstream out(json_path);
            if (!out) {
                std::cerr << "cannot open " << json_path << "\n";
                return 1;
            }
            writeJson(out, rows, analysis);
            std::cout << "json written to " << json_path << "\n";
        }
    }
    // The sink keeps the measured calls observable.
    return g_sink == 0xdeadbeef ? 1 : 0;
}
