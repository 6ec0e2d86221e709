/**
 * @file
 * Microbenchmark of the cycle-level wormhole engine itself: how many
 * simulated cycles (and flit-channel traversals) per wall-clock
 * second Network::step() sustains. The figure sweeps (Figs. 13-16)
 * spend essentially all of their time here, so this number bounds
 * every experiment's turnaround. Scenarios cover the regimes that
 * stress different parts of the hot loop: a 16x16 mesh under uniform
 * traffic near saturation (dense move lists, long wormhole chains),
 * the same mesh at light load (idle-skip path), transpose under an
 * adaptive algorithm (multi-candidate routing decisions), and a
 * double-y virtualized mesh (physical-channel arbitration).
 *
 * Self-timed (steady_clock over chunked cycles; no external
 * benchmark dependency). `--json[=PATH]` emits machine-readable
 * results; tools/perf_compare.py diffs two such files and the CI
 * perf smoke job gates on the committed BENCH_sim.json baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <thread>

#include "core/routing/factory.hpp"
#include "select/factory.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"
#include "topology/virtual_channels.hpp"
#include "traffic/pattern.hpp"
#include "util/json.hpp"

using namespace turnmodel;

namespace {

struct Scenario
{
    std::string name;
    const Topology *topo;
    std::string algorithm;
    std::string pattern;
    double rate;
    /** Engine under test; the VC router exercises a different hot
     * loop (VA/SA arbitration, credit returns) than the classic
     * single-buffer router. */
    RouterModel model = RouterModel::Classic;
    /** Shards stepping the network (SimConfig::sim_threads). */
    unsigned threads = 1;
    /** Output-selection policy; empty = engine default. */
    std::string sel{};
    /** Closed-loop request/reply workload (traffic/workload.hpp):
     * exercises the reply-scheduling path in the delivery hot loop. */
    bool reqreply = false;
};

struct Timing
{
    std::string name;
    std::string sel;                 ///< Effective selection policy.
    unsigned threads = 1;            ///< Shards stepping the net.
    std::uint64_t cycles = 0;        ///< Timed cycles.
    std::uint64_t flit_moves = 0;    ///< Traversals in the window.
    double wall_seconds = 0.0;
    double cycles_per_sec = 0.0;
    double flit_moves_per_sec = 0.0;
    double flit_moves_per_cycle = 0.0;
};

/**
 * Warm the network into steady state, then time step() in chunks
 * until at least @p min_seconds of wall clock have accumulated.
 * Completions are drained into a reused buffer each chunk, exactly
 * as the measurement driver does.
 */
Timing
benchScenario(const Scenario &s, std::uint64_t warmup,
              double min_seconds)
{
    using Clock = std::chrono::steady_clock;
    const RoutingPtr routing = makeRouting(s.algorithm, *s.topo);
    const PatternPtr pattern = makePattern(s.pattern, *s.topo);
    SimConfig cfg;
    cfg.injection_rate = s.rate;
    cfg.router_model = s.model;
    cfg.sim_threads = s.threads;
    cfg.selection_policy = s.sel;
    cfg.workload.request_reply = s.reqreply;
    const std::unique_ptr<NetworkEngine> net =
        makeEngine(*routing, *pattern, cfg);
    std::vector<Completion> done;

    for (std::uint64_t c = 0; c < warmup; ++c)
        net->step();
    net->drainCompletions(done);

    constexpr std::uint64_t kChunk = 2000;
    const std::uint64_t moves_before = net->counters().flit_moves;
    Timing t;
    t.name = s.name;
    t.sel = s.sel.empty() ? toString(cfg.output_selection) : s.sel;
    t.threads = s.threads;
    auto elapsed = Clock::duration::zero();
    while (elapsed < std::chrono::duration<double>(min_seconds)) {
        const auto t0 = Clock::now();
        for (std::uint64_t c = 0; c < kChunk; ++c)
            net->step();
        net->drainCompletions(done);
        elapsed += Clock::now() - t0;
        t.cycles += kChunk;
    }
    t.flit_moves = net->counters().flit_moves - moves_before;
    t.wall_seconds =
        std::chrono::duration<double>(elapsed).count();
    t.cycles_per_sec =
        static_cast<double>(t.cycles) / t.wall_seconds;
    t.flit_moves_per_sec =
        static_cast<double>(t.flit_moves) / t.wall_seconds;
    t.flit_moves_per_cycle = static_cast<double>(t.flit_moves)
        / static_cast<double>(t.cycles);
    return t;
}

void
printText(const std::vector<Timing> &rows)
{
    std::cout << "== simulator hot-loop microbenchmark ==\n";
    std::cout << std::left << std::setw(24) << "scenario"
              << std::right << std::setw(14) << "cycles/sec"
              << std::setw(16) << "flit-moves/sec"
              << std::setw(13) << "moves/cycle\n";
    for (const Timing &t : rows) {
        std::cout << std::left << std::setw(24) << t.name
                  << std::right << std::fixed << std::setprecision(0)
                  << std::setw(14) << t.cycles_per_sec
                  << std::setw(16) << t.flit_moves_per_sec
                  << std::setprecision(2) << std::setw(13)
                  << t.flit_moves_per_cycle << "\n";
    }
}

void
writeJson(std::ostream &os, const std::vector<Timing> &rows)
{
    // host_cpus lets the comparator judge scaling results: thread
    // scaling is only meaningful where the hardware can supply the
    // parallelism (see tools/perf_compare.py).
    os << "{\n  \"benchmark\": \"micro_sim\",\n  \"host_cpus\": "
       << std::thread::hardware_concurrency() << ",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Timing &t = rows[i];
        os << "    {\"name\": \"" << jsonEscape(t.name)
           << "\", \"selection_policy\": \"" << jsonEscape(t.sel)
           << "\", \"threads\": " << t.threads
           << ", \"cycles\": " << t.cycles
           << ", \"flit_moves\": " << t.flit_moves
           << ", \"wall_seconds\": ";
        writeJsonNumber(os, t.wall_seconds);
        os << ", \"cycles_per_sec\": ";
        writeJsonNumber(os, t.cycles_per_sec);
        os << ", \"flit_moves_per_sec\": ";
        writeJsonNumber(os, t.flit_moves_per_sec);
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string json_path;
    std::string only;
    std::string sel_override;
    std::uint64_t warmup = 3000;
    double min_seconds = 1.0;
    int sim_threads_override = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_path = arg.substr(7);
        } else if (arg == "--quick") {
            warmup = 1000;
            min_seconds = 0.25;
        } else if (arg.rfind("--only=", 0) == 0) {
            only = arg.substr(7);
        } else if (arg.rfind("--sim-threads=", 0) == 0) {
            char *end = nullptr;
            const char *val =
                arg.c_str() + std::string("--sim-threads=").size();
            const unsigned long n = std::strtoul(val, &end, 10);
            if (end == val || *end != '\0' || n == 0) {
                std::cerr << "--sim-threads needs a positive "
                             "integer, got '" << val << "'\n";
                return 2;
            }
            sim_threads_override = static_cast<int>(n);
        } else if (arg.rfind("--sel=", 0) == 0) {
            sel_override = arg.substr(std::string("--sel=").size());
            const auto names = availableSelectionPolicyNames();
            if (std::find(names.begin(), names.end(),
                          sel_override) == names.end()) {
                std::cerr << "unknown selection policy '"
                          << sel_override << "' (available:";
                for (const std::string &n : names)
                    std::cerr << ' ' << n;
                std::cerr << ")\n";
                return 2;
            }
        } else {
            std::cerr << "usage: micro_sim [--quick] "
                         "[--only=NAME] [--sim-threads=N] "
                         "[--sel=NAME] [--json[=PATH]]\n";
            return 2;
        }
    }

    NDMesh mesh16 = NDMesh::mesh2D(16, 16);
    VirtualizedMesh vmesh = VirtualizedMesh::doubleY(8, 8);
    VirtualizedMesh vmesh16 = VirtualizedMesh::uniform({16, 16}, 2);
    // Large-network scaling trio: big enough that each shard owns
    // thousands of ports and the barrier cost amortizes.
    NDMesh mesh64 = NDMesh::mesh2D(64, 64);
    KAryNCube cube16(16, 3);
    VirtualizedMesh vmesh32 = VirtualizedMesh::uniform({32, 32}, 2);
    const std::vector<Scenario> scenarios = {
        {"mesh16_uniform_sat", &mesh16, "xy", "uniform", 0.22},
        {"mesh16_uniform_low", &mesh16, "xy", "uniform", 0.05},
        {"mesh16_transpose_wf", &mesh16, "west-first", "transpose",
         0.12},
        {"vmesh8_mady_uniform", &vmesh, "mad-y", "uniform", 0.20},
        {"vc16_escape_uniform", &vmesh16, "vc:xy", "uniform", 0.20,
         RouterModel::VcCredit},
        {"mesh64_uniform_sat_t1", &mesh64, "xy", "uniform", 0.06,
         RouterModel::Classic, 1},
        {"mesh64_uniform_sat_t4", &mesh64, "xy", "uniform", 0.06,
         RouterModel::Classic, 4},
        {"mesh64_uniform_sat_t8", &mesh64, "xy", "uniform", 0.06,
         RouterModel::Classic, 8},
        {"cube16_uniform_t1", &cube16,
         "wrap-first-hop:dimension-order", "uniform", 0.10,
         RouterModel::Classic, 1},
        {"cube16_uniform_t4", &cube16,
         "wrap-first-hop:dimension-order", "uniform", 0.10,
         RouterModel::Classic, 4},
        {"cube16_uniform_t8", &cube16,
         "wrap-first-hop:dimension-order", "uniform", 0.10,
         RouterModel::Classic, 8},
        {"vc32_escape_t1", &vmesh32, "vc:xy", "uniform", 0.12,
         RouterModel::VcCredit, 1},
        {"vc32_escape_t4", &vmesh32, "vc:xy", "uniform", 0.12,
         RouterModel::VcCredit, 4},
        {"vc32_escape_t8", &vmesh32, "vc:xy", "uniform", 0.12,
         RouterModel::VcCredit, 8},
        // Selection-policy dispatch overhead on the hot path: the
        // free-slot snapshot under saturated uniform traffic, and
        // the regional EWMA pipeline under adaptive transpose.
        {"sel_uniform", &mesh16, "negative-first", "uniform", 0.22,
         RouterModel::Classic, 1, "local-congestion"},
        {"sel_transpose", &mesh16, "negative-first", "transpose",
         0.12, RouterModel::Classic, 1, "regional"},
        // Closed-loop request/reply: every delivery schedules a reply
        // at its destination's source, doubling generation work and
        // exercising the reply queue in the delivery path. Offered
        // rate is kept moderate since replies add their own load.
        {"reqreply_16x16", &mesh16, "xy", "uniform", 0.08,
         RouterModel::Classic, 1, "", true},
    };

    std::vector<Timing> rows;
    rows.reserve(scenarios.size());
    for (Scenario s : scenarios) {
        if (!only.empty() && s.name != only)
            continue;
        if (sim_threads_override > 0)
            s.threads = static_cast<unsigned>(sim_threads_override);
        if (!sel_override.empty())
            s.sel = sel_override;
        rows.push_back(benchScenario(s, warmup, min_seconds));
    }
    if (rows.empty()) {
        std::cerr << "no scenario matches --only=" << only << "\n";
        return 2;
    }

    printText(rows);
    if (json) {
        if (json_path.empty()) {
            writeJson(std::cout, rows);
        } else {
            std::ofstream out(json_path);
            if (!out) {
                std::cerr << "cannot open " << json_path << "\n";
                return 1;
            }
            writeJson(out, rows);
            std::cout << "json written to " << json_path << "\n";
        }
    }
    return 0;
}
