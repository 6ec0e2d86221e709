/**
 * @file
 * The three workloads. Each round times its set-up (topology,
 * routing, pattern and engine construction) apart from its
 * simulation, and checks its outputs against properties of the turn
 * model and against the benchmark's own computations once the wall
 * clock has stopped.
 */

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/routing/factory.hpp"
#include "exec/runner.hpp"
#include "exec/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/virtual_channels.hpp"

namespace perfbench {

using namespace turnmodel;

const std::vector<Figure> &
paperFigures()
{
    static const std::vector<Figure> figures{
        {"figure-13", false, "uniform",
         {"xy", "west-first", "north-last", "negative-first"}, 0.02, 0.30},
        {"figure-14", false, "transpose",
         {"xy", "west-first", "north-last", "negative-first"}, 0.02, 0.40},
        {"figure-15", true, "transpose",
         {"e-cube", "p-cube", "abonf", "abopl"}, 0.02, 0.50},
        {"figure-16", true, "reverse-flip",
         {"e-cube", "p-cube", "abonf", "abopl"}, 0.02, 0.85},
    };
    return figures;
}

std::unique_ptr<Topology>
figureTopology(const Figure &figure)
{
    if (figure.hypercube)
        return std::make_unique<Hypercube>(8);
    return std::make_unique<NDMesh>(NDMesh::mesh2D(16, 16));
}

std::vector<double>
figureRates(const Figure &figure)
{
    return SweepConfig::ladder(figure.rate_lo, figure.rate_hi, 8);
}

SimConfig
paperConfig(std::uint64_t seed)
{
    SimConfig cfg;
    cfg.warmup_cycles = 8000;
    cfg.measure_cycles = 20000;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<Topology>
vcTopology()
{
    return std::make_unique<VirtualizedMesh>(
        VirtualizedMesh::uniform({kVcRadix, kVcRadix}, 2));
}

std::unique_ptr<Topology>
vcPhysicalTopology()
{
    return std::make_unique<NDMesh>(NDMesh::mesh2D(kVcRadix, kVcRadix));
}

SimConfig
vcConfig(std::uint64_t seed)
{
    SimConfig cfg;
    cfg.router_model = RouterModel::VcCredit;
    cfg.selection_policy = "regional";
    // Saturation of this network sits near 0.04 flits/node/cycle:
    // source queues stay bounded at 0.03 and grow from 0.04 on.
    cfg.injection_rate = 0.03;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<Topology>
soakTopology()
{
    return std::make_unique<NDMesh>(NDMesh::mesh2D(kSoakRadix, kSoakRadix));
}

SimConfig
soakConfig(std::uint64_t seed)
{
    SimConfig cfg;
    cfg.injection_rate = 0.012;
    cfg.warmup_cycles = 2000;
    cfg.measure_cycles = 20000;
    cfg.workload.request_reply = true;
    cfg.workload.think_cycles = 20;
    cfg.workload.burst_on_cycles = 1500.0;
    cfg.workload.burst_off_cycles = 1500.0;
    cfg.obs.channel_counters = true;
    cfg.obs.sample_stride = 1000;
    cfg.sim_threads = 2;
    cfg.seed = seed;
    return cfg;
}

namespace {

/** Minimal hop distance, computed from the nodes' coordinates. */
int
coordDistance(const Topology &topo, NodeId a, NodeId b)
{
    const Coords ca = topo.coords(a);
    const Coords cb = topo.coords(b);
    int d = 0;
    for (std::size_t i = 0; i < ca.size(); ++i)
        d += std::abs(ca[i] - cb[i]);
    return d;
}

/** Mean and spread of the minimal distance a pattern's packets
 * travel, per packet, computed by the benchmark. */
struct DistanceStats
{
    double mean = 0.0;
    double sd = 0.0;
    /** Nodes that send (a permutation skips self-directed nodes). */
    std::size_t senders = 0;
};

DistanceStats
patternDistance(const Topology &topo, const TrafficPattern &pattern)
{
    const NodeId n = topo.numNodes();
    double sum = 0.0;
    double sum_sq = 0.0;
    double weight = 0.0;
    DistanceStats stats;
    if (pattern.isDeterministic()) {
        Rng unused(1);
        for (NodeId src = 0; src < n; ++src) {
            const std::optional<NodeId> dest =
                pattern.destination(src, unused);
            if (!dest || *dest == src)
                continue;
            const double d = coordDistance(topo, src, *dest);
            sum += d;
            sum_sq += d * d;
            weight += 1.0;
            ++stats.senders;
        }
    } else {
        // Uniform traffic: every other node equally likely, so the
        // mean runs over all ordered pairs of distinct nodes.
        TM_ASSERT(pattern.name() == "uniform",
                  "no reference distance for pattern ", pattern.name());
        std::vector<Coords> coords(n);
        for (NodeId v = 0; v < n; ++v)
            coords[v] = topo.coords(v);
        for (NodeId a = 0; a < n; ++a) {
            for (NodeId b = 0; b < n; ++b) {
                int d = 0;
                for (std::size_t i = 0; i < coords[a].size(); ++i)
                    d += std::abs(coords[a][i] - coords[b][i]);
                sum += d;
                sum_sq += static_cast<double>(d) * d;
            }
        }
        weight = static_cast<double>(n) * (n - 1);
        stats.senders = n;
    }
    stats.mean = sum / weight;
    stats.sd = std::sqrt(std::max(0.0, sum_sq / weight
                                           - stats.mean * stats.mean));
    return stats;
}


/** FNV-1a over every simulated statistic a round produces. */
class Digest
{
  public:
    void add(std::uint64_t v) { h_ = fnv1aValue(h_, v); }
    void add(double v) { h_ = fnv1aValue(h_, v); }

    void add(const NetworkCounters &n)
    {
        for (std::uint64_t v :
             {n.packets_generated, n.packets_delivered, n.flits_generated,
              n.flits_delivered, n.header_hops, n.source_queue_flits,
              n.flits_in_network, n.flit_moves})
            add(v);
    }

    void add(const SimResult &r)
    {
        for (double v :
             {r.offered_flits_per_us, r.throughput_flits_per_us,
              r.avg_latency_us, r.avg_network_latency_us, r.p99_latency_us,
              r.avg_hops, r.queue_growth_packets, r.delivered_ratio})
            add(v);
        add(r.packets_measured);
        add(static_cast<std::uint64_t>(r.saturated)
            | static_cast<std::uint64_t>(r.deadlocked) << 1
            | static_cast<std::uint64_t>(r.latency_p99_clamped) << 2);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Flit conservation: every generated flit is delivered, in the
 * network, or queued at its source. */
bool
conserves(const NetworkCounters &n)
{
    return n.flits_generated
        == n.flits_delivered + n.flits_in_network + n.source_queue_flits;
}

/** Per-packet properties of minimal wormhole routing. */
struct PacketAudit
{
    std::uint64_t packets = 0;
    std::uint64_t nonminimal = 0;
    std::uint64_t below_bound = 0;
    double min_slack = std::numeric_limits<double>::infinity();

    void add(const Topology &topo, const Completion &c)
    {
        ++packets;
        if (static_cast<int>(c.hops) != coordDistance(topo, c.src, c.dest))
            ++nonminimal;
        // A wormhole packet needs one cycle per hop for its header
        // and one per flit behind it.
        const double slack = c.delivered - c.injected
            - static_cast<double>(c.hops + c.length);
        if (slack < 0.0)
            ++below_bound;
        min_slack = std::min(min_slack, slack);
    }
};

std::string
describe(const std::string &where, const std::string &what)
{
    return where + ": " + what;
}

/** Second moment of the packet length distribution, sampled. */
double
lengthSecondMoment(const PacketLengthDist &lengths)
{
    Rng rng(12345);
    double sum_sq = 0.0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) {
        const double l = lengths.sample(rng);
        sum_sq += l * l;
    }
    return sum_sq / samples;
}

/** z-score bound used by every sampling-error check. */
constexpr double kSigmas = 5.0;

/** Check that @p result's average hop count is the pattern's mean
 * minimal distance within sampling error. */
bool
hopsMatch(const SimResult &result, const DistanceStats &dist)
{
    if (result.packets_measured == 0)
        return false;
    const double tol = kSigmas * dist.sd
        / std::sqrt(static_cast<double>(result.packets_measured));
    return std::abs(result.avg_hops - dist.mean) <= tol + 1e-9;
}

// ---------------------------------------------------------------------
// paper_figs

/** What precedes a figure's first simulated cycle in Runner::run:
 * its topology, pattern, and one routing per sweep point. */
struct FigureRun
{
    std::unique_ptr<Topology> topo;
    PatternPtr pattern;
    std::vector<RoutingPtr> routings;   ///< algorithm-major, rate-minor.
};

FigureRun
prepareFigure(const Figure &figure, std::size_t num_rates)
{
    FigureRun run;
    run.topo = figureTopology(figure);
    run.pattern = makePattern(figure.pattern, *run.topo);
    for (const std::string &algorithm : figure.algorithms) {
        for (std::size_t r = 0; r < num_rates; ++r) {
            Scope span("core.make_routing");
            run.routings.push_back(makeRouting(algorithm, *run.topo));
        }
    }
    return run;
}

/** Step a classic engine at a series' lowest rate and audit every
 * packet it delivers. */
void
auditSeriesPackets(const Figure &figure, const FigureRun &run,
                   std::size_t series, double rate, const SimConfig &base,
                   Tally &tally)
{
    SimConfig cfg = base;
    cfg.injection_rate = rate;
    const std::unique_ptr<NetworkEngine> engine = makeEngine(
        *run.routings[series * figureRates(figure).size()], *run.pattern,
        cfg);
    PacketAudit audit;
    std::vector<Completion> batch;
    for (int c = 0; c < 6000 && !engine->deadlockDetected(); ++c) {
        engine->step();
        engine->drainCompletions(batch);
        for (const Completion &done : batch)
            audit.add(*run.topo, done);
    }
    const std::string where = std::string(figure.name) + " "
        + figure.algorithms[series] + " per-packet";
    tally.check(!engine->deadlockDetected(), describe(where, "deadlock"));
    tally.check(audit.packets > 0 && audit.nonminimal == 0,
                describe(where, "non-minimal hops"));
    tally.check(audit.below_bound == 0 && audit.min_slack == 0.0,
                describe(where, "latency bound not tight at 0 slack"));
    tally.check(conserves(engine->counters()),
                describe(where, "flit conservation"));
}

Round
paperRound(const Options &opt, Tally &tally)
{
    const std::vector<Figure> &figures = paperFigures();
    const SimConfig base = paperConfig(opt.seed);
    Round round;

    // Set-up: what precedes each figure's first simulated cycle in
    // Runner::run (pattern, one routing per point, the first point's
    // engine), for all four figures. A few milliseconds, so it is
    // repeated and its median taken.
    std::vector<double> setups;
    for (int rep = 0; rep < 31; ++rep) {
        const double t0 = hostSeconds();
        for (const Figure &figure : figures) {
            const std::vector<double> rates = figureRates(figure);
            FigureRun run = prepareFigure(figure, rates.size());
            SimConfig cfg = base;
            cfg.injection_rate = rates[0];
            Simulator first(*run.routings[0], *run.pattern, cfg);
        }
        setups.push_back(hostSeconds() - t0);
    }
    round.setup_s = median(setups);

    // The sweep, in the order Runner::run executes it at one job.
    std::vector<FigureRun> runs;
    std::vector<std::vector<SweepSeries>> sweeps;
    std::vector<std::vector<NetworkCounters>> counters;
    double wall_start = -1.0;
    std::uint64_t routings_made = 0;
    for (const Figure &figure : figures) {
        Scope figure_span("exec.figure");
        const std::vector<double> rates = figureRates(figure);
        runs.push_back(prepareFigure(figure, rates.size()));
        const FigureRun &run = runs.back();
        routings_made += run.routings.size();
        std::vector<SweepSeries> &series = sweeps.emplace_back();
        std::vector<NetworkCounters> &figure_counters =
            counters.emplace_back();
        for (std::size_t a = 0; a < figure.algorithms.size(); ++a) {
            series.emplace_back().algorithm = figure.algorithms[a];
            for (std::size_t r = 0; r < rates.size(); ++r) {
                Scope point_span("exec.point");
                SimConfig cfg = base;
                cfg.injection_rate = rates[r];
                std::optional<Simulator> sim;
                {
                    Scope span("sim.construct");
                    sim.emplace(*run.routings[a * rates.size() + r],
                                *run.pattern, cfg);
                }
                if (wall_start < 0.0)
                    wall_start = hostSeconds();
                SweepPoint point;
                point.injection_rate = rates[r];
                {
                    Scope span("sim.run");
                    point.result = sim->run();
                }
                const NetworkCounters &n = sim->network().counters();
                round.flit_moves += n.flit_moves;
                figure_counters.push_back(n);
                if (tracer().enabled()) {
                    tracer().add("sim.cycles",
                                 static_cast<double>(sim->network().now()));
                    tracer().add("sim.flit_moves",
                                 static_cast<double>(n.flit_moves));
                    tracer().peak("sim.pool_slots",
                                  static_cast<double>(
                                      sim->network().packetPoolCapacity()));
                }
                series[a].points.push_back(point);
            }
        }
    }
    round.wall_s = hostSeconds() - wall_start;

    Digest digest;
    std::uint64_t points_run = 0;
    std::uint64_t points_kept = 0;
    const double cycle_us = base.cycleUs();
    const double len_sq = lengthSecondMoment(base.lengths);
    for (std::size_t f = 0; f < figures.size(); ++f) {
        const Figure &figure = figures[f];
        const FigureRun &run = runs[f];
        const DistanceStats dist = patternDistance(*run.topo, *run.pattern);
        for (std::size_t a = 0; a < sweeps[f].size(); ++a) {
            SweepSeries &series = sweeps[f][a];
            const std::string where =
                std::string(figure.name) + " " + series.algorithm;
            bool deadlock_free = true;
            bool conserved = true;
            for (std::size_t r = 0; r < series.points.size(); ++r) {
                const SimResult &res = series.points[r].result;
                const NetworkCounters &n =
                    counters[f][a * series.points.size() + r];
                digest.add(res);
                digest.add(n);
                tally.op("sweep_points", !res.deadlocked,
                         describe(where, "sweep point deadlocked"));
                deadlock_free &= !res.deadlocked;
                conserved &= conserves(n);
            }
            tally.check(deadlock_free, describe(where, "watchdog tripped"));
            tally.check(conserved, describe(where, "flit conservation"));

            // The lowest rate is far below saturation: delivered load
            // equals offered load within Poisson sampling error, and
            // the measured packets travel the pattern's mean minimal
            // distance. (Nearer saturation, sources on contended paths
            // back up and their packets are under-sampled, so the
            // mean drifts without any packet leaving a minimal path;
            // the per-packet audit below checks every hop count.)
            const SimResult &low = series.points.front().result;
            tally.check(hopsMatch(low, dist),
                        describe(where, "avg_hops off the mean minimal "
                                        "distance"));
            const double rate = series.points.front().injection_rate;
            const double window = static_cast<double>(base.measure_cycles);
            const double expected_packets = rate
                * static_cast<double>(dist.senders) * window
                / base.lengths.mean();
            const double expected =
                rate * static_cast<double>(dist.senders) / cycle_us;
            const double tol = kSigmas
                * std::sqrt(expected_packets * len_sq) / (window * cycle_us);
            tally.check(!low.saturated
                            && std::abs(low.throughput_flits_per_us
                                        - expected) <= tol,
                        describe(where, "lowest rate saturated or "
                                        "throughput off the offered load"));

            points_run += series.points.size();
            truncateAtSaturation(series, kStopAfterSaturated);
            points_kept += series.points.size();
            auditSeriesPackets(figure, run, a, rate, base, tally);
        }
    }
    if (tracer().enabled()) {
        tracer().add("routing.built", static_cast<double>(routings_made));
        tracer().add("exec.points_kept", static_cast<double>(points_kept));
    }
    round.digest = digest.value();
    std::ostringstream text;
    text << "points_run=" << points_run << " points_kept=" << points_kept
         << " flit_moves=" << round.flit_moves;
    round.digest_text = text.str();
    return round;
}

// ---------------------------------------------------------------------
// vc_adaptive

constexpr int kVcBlocks = 48;
constexpr int kVcBlockCycles = 1000;
constexpr int kVcDrainCap = 200000;

Round
vcRound(const Options &opt, Tally &tally)
{
    const SimConfig cfg = vcConfig(opt.seed);
    Round round;

    const double t0 = hostSeconds();
    const std::unique_ptr<Topology> topo = vcTopology();
    RoutingPtr routing;
    {
        Scope span("core.make_routing");
        routing = makeRouting(kVcAlgorithm, *topo);
    }
    const PatternPtr pattern = makePattern(kVcPattern, *topo);
    std::unique_ptr<NetworkEngine> engine;
    {
        Scope span("router.construct");
        engine = makeEngine(*routing, *pattern, cfg);
    }
    round.setup_s = hostSeconds() - t0;

    std::vector<Completion> all;
    std::vector<Completion> batch;
    bool conserved = true;
    const double wall_start = hostSeconds();
    for (int b = 0; b < kVcBlocks; ++b) {
        Scope span("router.block");
        for (int c = 0; c < kVcBlockCycles; ++c)
            engine->step();
        engine->drainCompletions(batch);
        all.insert(all.end(), batch.begin(), batch.end());
        conserved &= conserves(engine->counters());
        tally.op("cycle_blocks", !engine->deadlockDetected(),
                 "vc_adaptive: watchdog tripped in a cycle block");
    }
    // Generation off: an escape-VC network must deliver everything.
    std::uint64_t drain_cycles = 0;
    {
        Scope span("router.drain");
        engine->setGenerationEnabled(false);
        const NetworkCounters &n = engine->counters();
        while ((n.packets_delivered < n.packets_generated
                || n.flits_in_network > 0 || n.source_queue_flits > 0)
               && !engine->deadlockDetected() && drain_cycles < kVcDrainCap) {
            engine->step();
            ++drain_cycles;
        }
        engine->drainCompletions(batch);
        all.insert(all.end(), batch.begin(), batch.end());
    }
    round.wall_s = hostSeconds() - wall_start;

    const NetworkCounters &n = engine->counters();
    const bool drained = n.packets_delivered == n.packets_generated
        && n.flits_in_network == 0 && n.source_queue_flits == 0;
    tally.op("drains", drained && !engine->deadlockDetected(),
             "vc_adaptive: drain did not complete");
    round.flit_moves = n.flit_moves;
    if (tracer().enabled()) {
        tracer().add("routing.built", 1.0);
        tracer().add("router.cycles", static_cast<double>(engine->now()));
        tracer().add("router.flit_moves", static_cast<double>(n.flit_moves));
    }

    PacketAudit audit;
    for (const Completion &c : all)
        audit.add(*topo, c);
    tally.check(!engine->deadlockDetected(),
                "vc_adaptive: watchdog tripped");
    tally.check(drained && all.size() == n.packets_generated,
                "vc_adaptive: not every generated packet was delivered "
                "once generation stopped");
    tally.check(audit.packets > 0 && audit.nonminimal == 0,
                "vc_adaptive: a packet took a non-minimal path");
    tally.check(audit.below_bound == 0,
                "vc_adaptive: a packet beat the wormhole latency bound");
    tally.check(conserved && conserves(n),
                "vc_adaptive: flit conservation");

    Digest digest;
    digest.add(n);
    digest.add(engine->now());
    std::uint64_t latency_sum = 0;
    for (const Completion &c : all) {
        digest.add(static_cast<std::uint64_t>(c.id));
        digest.add(c.delivered);
        latency_sum += static_cast<std::uint64_t>(c.delivered - c.created);
    }
    round.digest = digest.value();
    std::ostringstream text;
    text << "packets=" << n.packets_delivered << " flits="
         << n.flits_delivered << " flit_moves=" << n.flit_moves
         << " drain_cycles=" << drain_cycles << " latency_sum="
         << latency_sum;
    round.digest_text = text.str();
    return round;
}

// ---------------------------------------------------------------------
// soak_reqreply

/**
 * The sampler's windows should add up to the flits delivered in the
 * measurement window. Run on fixed inputs, independent of the seed:
 * the first window also counts every flit delivered during warmup,
 * so this fails on every input.
 */
bool
samplerFlitsAddUp()
{
    const NDMesh mesh = NDMesh::mesh2D(8, 8);
    const RoutingPtr routing = makeRouting("west-first", mesh);
    const PatternPtr pattern = makePattern("uniform", mesh);
    SimConfig cfg;
    cfg.injection_rate = 0.05;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 2000;
    cfg.obs.sample_stride = 500;
    Simulator sim(*routing, *pattern, cfg);
    const SimResult r = sim.run();
    std::uint64_t windows = 0;
    for (const WindowSample &w : sim.obsReport().samples)
        windows += w.flits_delivered;
    const auto delivered = static_cast<std::uint64_t>(std::llround(
        r.throughput_flits_per_us * static_cast<double>(cfg.measure_cycles)
        * cfg.cycleUs()));
    return windows == delivered;
}

Round
soakRound(const Options &opt, Tally &tally)
{
    const SimConfig cfg = soakConfig(opt.seed);
    Round round;

    const double t0 = hostSeconds();
    const std::unique_ptr<Topology> topo = soakTopology();
    RoutingPtr routing;
    {
        Scope span("core.make_routing");
        routing = makeRouting(kSoakAlgorithm, *topo);
    }
    const PatternPtr pattern = makePattern(kSoakPattern, *topo);
    std::optional<Simulator> sim;
    {
        Scope span("sim.construct");
        sim.emplace(*routing, *pattern, cfg);
    }
    round.setup_s = hostSeconds() - t0;

    const double wall_start = hostSeconds();
    SimResult result;
    {
        Scope span("sim.run");
        result = sim->run();
    }
    round.wall_s = hostSeconds() - wall_start;

    const NetworkEngine &engine = sim->network();
    const NetworkCounters &n = engine.counters();
    round.flit_moves = n.flit_moves;
    tally.op("simulator_runs", !result.deadlocked,
             "soak_reqreply: run deadlocked");
    if (tracer().enabled()) {
        tracer().add("routing.built", 1.0);
        tracer().add("sim.cycles", static_cast<double>(engine.now()));
        tracer().add("sim.flit_moves", static_cast<double>(n.flit_moves));
        tracer().peak("sim.pool_slots",
                      static_cast<double>(engine.packetPoolCapacity()));
    }

    const DistanceStats dist = patternDistance(*topo, *pattern);
    tally.check(!result.deadlocked, "soak_reqreply: watchdog tripped");
    tally.check(!result.saturated && hopsMatch(result, dist),
                "soak_reqreply: saturated, or avg_hops off the mean "
                "minimal distance");
    tally.check(result.p99_latency_us >= result.avg_latency_us,
                "soak_reqreply: p99 latency below the mean");
    tally.check(conserves(n), "soak_reqreply: flit conservation");

    // The sampler's windows tile the measurement window and count
    // every measured packet once.
    const ObsReport report = sim->obsReport();
    bool tiled = !report.samples.empty()
        && report.samples.front().start_cycle == cfg.warmup_cycles
        && report.samples.back().end_cycle
            == cfg.warmup_cycles + cfg.measure_cycles;
    std::uint64_t packets = 0;
    for (std::size_t i = 0; i < report.samples.size(); ++i) {
        packets += report.samples[i].packets_completed;
        if (i > 0)
            tiled &= report.samples[i].start_cycle
                == report.samples[i - 1].end_cycle;
    }
    tally.check(tiled && packets == result.packets_measured,
                "soak_reqreply: sampler windows do not add up to the "
                "run's packets");
    tally.knownFault(samplerFlitsAddUp(),
                     "sampler: window flits include warmup deliveries");

    Digest digest;
    digest.add(result);
    digest.add(n);
    digest.add(static_cast<std::uint64_t>(engine.packetPoolCapacity()));
    for (const WindowSample &w : report.samples) {
        digest.add(w.flits_delivered);
        digest.add(w.packets_completed);
        digest.add(w.latency_mean_cycles);
    }
    round.digest = digest.value();
    std::ostringstream text;
    text << "packets_measured=" << result.packets_measured
         << " throughput_flits_per_us=" << result.throughput_flits_per_us
         << " avg_hops=" << result.avg_hops << " p99_us="
         << result.p99_latency_us << " flit_moves=" << n.flit_moves
         << " pool_slots=" << engine.packetPoolCapacity();
    round.digest_text = text.str();
    return round;
}

const Workload kWorkloads[] = {
    {"paper_figs", paperRound, 1},
    {"vc_adaptive", vcRound, 1},
    {"soak_reqreply", soakRound, 2},
};

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : kWorkloads)
        names.emplace_back(w.name);
    return names;
}

} // namespace perfbench
