/**
 * @file
 * Per-layer probes of the traced run. Each metric is timed around
 * calls into one module's public functions, or counted from
 * outside, on the workload's own networks. Where the traced round
 * already exercised a layer (the classic engine in paper_figs and
 * soak_reqreply, the VC router in vc_adaptive, the sweep points of
 * paper_figs), its spans and counts are read instead of probing.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "core/routing/compiled.hpp"
#include "core/routing/factory.hpp"
#include "exec/runner.hpp"
#include "select/factory.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "topology/virtual_channels.hpp"
#include "traffic/source.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace turnmodel;

namespace {

/** One network a probe builds: topology, routing, pattern, config. */
struct Net
{
    std::unique_ptr<Topology> topo;
    RoutingPtr routing;
    PatternPtr pattern;
    SimConfig cfg;
};

Net
makeNet(std::unique_ptr<Topology> topo, const std::string &algorithm,
        const std::string &pattern, const SimConfig &cfg)
{
    Net net;
    net.topo = std::move(topo);
    net.routing = makeRouting(algorithm, *net.topo);
    net.pattern = makePattern(pattern, *net.topo);
    net.cfg = cfg;
    return net;
}

/** The classic-engine network the probes step for the workload:
 * Figure 13's mesh at the middle of its ladder under west-first for
 * paper_figs, the physical mesh under the escape VCs for
 * vc_adaptive, and the soak network itself for soak_reqreply. */
Net
classicNet(const Options &opt)
{
    if (opt.workload == "paper_figs") {
        const Figure &figure = paperFigures().front();
        SimConfig cfg = paperConfig(opt.seed);
        const std::vector<double> rates = figureRates(figure);
        cfg.injection_rate = rates[rates.size() / 2];
        return makeNet(figureTopology(figure), "west-first", figure.pattern,
                       cfg);
    }
    if (opt.workload == "vc_adaptive") {
        SimConfig cfg = vcConfig(opt.seed);
        cfg.router_model = RouterModel::Classic;
        cfg.selection_policy.clear();
        return makeNet(vcPhysicalTopology(), kVcInner, kVcPattern, cfg);
    }
    return makeNet(soakTopology(), kSoakAlgorithm, kSoakPattern,
                   soakConfig(opt.seed));
}

/** The VC-router network: vc_adaptive's own, otherwise the classic
 * network under the VC router. */
Net
vcNet(const Options &opt)
{
    if (opt.workload == "vc_adaptive")
        return makeNet(vcTopology(), kVcAlgorithm, kVcPattern,
                       vcConfig(opt.seed));
    Net net = classicNet(opt);
    net.cfg.router_model = RouterModel::VcCredit;
    return net;
}

/** Every (topology, algorithm) whose table the workload compiles. */
std::vector<Net>
routingNets(const Options &opt)
{
    std::vector<Net> nets;
    if (opt.workload == "paper_figs") {
        for (const Figure &figure : paperFigures()) {
            for (const std::string &algorithm : figure.algorithms)
                nets.push_back(makeNet(figureTopology(figure), algorithm,
                                       figure.pattern,
                                       paperConfig(opt.seed)));
        }
    } else if (opt.workload == "vc_adaptive") {
        nets.push_back(vcNet(opt));
    } else {
        nets.push_back(classicNet(opt));
    }
    return nets;
}

/** Cycles a probe steps: enough work to time on any network size. */
std::uint64_t
probeCycles(const Topology &topo)
{
    return std::max<std::uint64_t>(2000, 5000000 / topo.numNodes());
}

struct Triple
{
    NodeId node;
    int state;   ///< 0 = injection, 1 + id of the arrival direction.
    NodeId dest;
};

/** (node, state, dest) triples along the paths of packets drawn
 * from the workload's pattern, as the engines look them up. */
std::vector<Triple>
walkTriples(const Net &net, const CompiledRoutingTable &table,
            std::uint64_t seed, std::size_t target)
{
    std::vector<Triple> triples;
    Rng rng = Rng::forStream(seed, 0x7e1a);
    const NodeId n = net.topo->numNodes();
    while (triples.size() < target) {
        const NodeId src = static_cast<NodeId>(rng.nextBounded(n));
        const std::optional<NodeId> dest =
            net.pattern->destination(src, rng);
        if (!dest || *dest == src)
            continue;
        NodeId node = src;
        int state = 0;
        while (node != *dest) {
            triples.push_back({node, state, *dest});
            const DirectionSet set = table.lookup(node, state, *dest);
            TM_ASSERT(!set.empty(), "no route from ", node, " to ", *dest);
            const Direction d = set.nth(static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(set.size()))));
            node = *net.topo->neighbor(node, d);
            state = 1 + d.id();
        }
    }
    return triples;
}

/** Host cost of one hostSeconds() call, subtracted from per-call
 * timings of calls too short to batch. */
double
clockCost()
{
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double a = hostSeconds();
        sum += hostSeconds() - a;
    }
    return sum / n;
}

/** Dense port index of an obs channel row (node * dirs + direction
 * id), or -1 for ejection rows. VC rows name the physical direction
 * and the VC; the policy sees the virtual direction. */
int
portOf(const Topology &topo, const ChannelUtilRow &row)
{
    const auto *vmesh = dynamic_cast<const VirtualizedMesh *>(&topo);
    const int dims = vmesh ? vmesh->numPhysicalDims() : topo.numDims();
    const std::optional<Direction> d = directionFromName(row.dir, dims);
    if (!d)
        return -1;
    Direction dir = *d;
    if (vmesh && row.vc >= 0)
        dir = Direction(static_cast<std::uint8_t>(
                            vmesh->virtualDim(d->dim, row.vc)),
                        d->positive);
    return static_cast<int>(row.node) * topo.numDirs() + dir.id();
}

/** Step @p engine for @p cycles inside a span named @p span. */
void
stepTimed(NetworkEngine &engine, std::uint64_t cycles,
          const std::string &span)
{
    Scope s(span);
    for (std::uint64_t c = 0; c < cycles; ++c)
        engine.step();
}

/** A short Simulator run of @p net; returns its host seconds. */
double
timedRun(const Net &net, const SimConfig &cfg, ObsReport *report,
         const std::string &span)
{
    Simulator sim(*net.routing, *net.pattern, cfg);
    const double t0 = hostSeconds();
    {
        Scope s(span);
        sim.run();
    }
    const double t = hostSeconds() - t0;
    if (report)
        *report = sim.obsReport();
    return t;
}

double
countOf(const std::string &name)
{
    const auto &counts = tracer().counts();
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
}

} // namespace

std::vector<LayerMetric>
probeLayers(const Options &opt, Tally &tally)
{
    Scope root("bench.probes");
    std::vector<LayerMetric> out;
    const auto put = [&](const std::string &name, double value,
                         const std::string &unit) {
        out.push_back({name, value, unit});
    };
    Net classic = classicNet(opt);

    // --- core: compile the workload's tables, then look up its own
    // triples in them.
    {
        std::vector<Net> nets = routingNets(opt);
        std::vector<std::unique_ptr<CompiledRoutingTable>> tables;
        double table_mb = 0.0;
        for (const Net &net : nets) {
            // Hand freed heap pages back first, or the table may land
            // in memory an earlier round already made resident.
            malloc_trim(0);
            const double rss0 = currentRssMb();
            {
                Scope s("routing.compile");
                tables.push_back(
                    std::make_unique<CompiledRoutingTable>(*net.routing));
            }
            table_mb += currentRssMb() - rss0;
        }
        double lookup_s = 0.0;
        double lookups = 0.0;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < nets.size(); ++i) {
            const std::vector<Triple> triples =
                walkTriples(nets[i], *tables[i], opt.seed, 20000);
            const std::size_t reps =
                std::max<std::size_t>(1, 4000000 / nets.size()
                                             / triples.size());
            const CompiledRoutingTable &table = *tables[i];
            const double t0 = hostSeconds();
            {
                Scope s("routing.lookup");
                for (std::size_t r = 0; r < reps; ++r) {
                    for (const Triple &t : triples)
                        sink += table.lookup(t.node, t.state, t.dest).raw();
                }
            }
            lookup_s += hostSeconds() - t0;
            lookups += static_cast<double>(reps * triples.size());
        }
        tally.check(sink != 0, "probe: routing lookups returned nothing");
        put("routing.built", countOf("routing.built"), "count");
        put("routing.compile_ms", tracer().total("routing.compile") * 1e3,
            "ms");
        put("routing.table_mb", table_mb, "MB");
        put("routing.lookup_ns", lookup_s / lookups * 1e9, "ns");
    }

    // --- obs: a short run with channel counters and the sampler on,
    // against the same run with them off. Its channel counters are
    // also the live congestion inputs of the classic selection probe.
    ObsReport classic_report;
    {
        SimConfig cfg = classic.cfg;
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = probeCycles(*classic.topo) / 2;
        cfg.sim_threads = 1;
        cfg.obs = ObsConfig{};
        const double off = timedRun(classic, cfg, nullptr, "probe.obs_off");
        cfg.obs.channel_counters = true;
        cfg.obs.sample_stride = 100;
        const double on =
            timedRun(classic, cfg, &classic_report, "obs.run_on");
        put("obs.step_overhead", on / off, "ratio");
    }

    // --- select: the workload's policy over its own route choices,
    // with congestion inputs from a live run's channel counters.
    {
        std::optional<Net> vc_net;
        ObsReport report = classic_report;
        if (opt.workload == "vc_adaptive") {
            vc_net = vcNet(opt);
            SimConfig cfg = vc_net->cfg;
            cfg.warmup_cycles = 500;
            cfg.measure_cycles = 2000;
            cfg.obs.channel_counters = true;
            timedRun(*vc_net, cfg, &report, "probe.congestion_run");
        }
        const Net &net = vc_net ? *vc_net : classic;
        const std::string name = net.cfg.selection_policy.empty()
            ? toString(net.cfg.output_selection)
            : net.cfg.selection_policy;
        const SelectionPolicyPtr policy =
            makeSelectionPolicy(name, *net.routing);
        const CompiledRoutingTable table(*net.routing);
        const std::size_t ports =
            static_cast<std::size_t>(net.topo->numNodes())
            * static_cast<std::size_t>(net.topo->numDirs());
        const auto depth = static_cast<std::uint16_t>(net.cfg.buffer_depth);
        std::vector<std::uint16_t> free_slots(ports, depth);
        std::vector<std::uint32_t> congestion(ports, 0);
        for (const ChannelUtilRow &row : report.channels) {
            const int p = portOf(*net.topo, row);
            if (p < 0)
                continue;
            congestion[static_cast<std::size_t>(p)] =
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    row.blocked_cycles,
                    std::numeric_limits<std::uint32_t>::max()));
            free_slots[static_cast<std::size_t>(p)] =
                static_cast<std::uint16_t>(
                    depth - std::min<std::uint32_t>(depth, row.peak_occupancy));
        }
        Rng rng(opt.seed);
        std::vector<SelectionQuery> queries;
        for (const Triple &t : walkTriples(net, table, opt.seed, 20000)) {
            SelectionQuery q;
            q.candidates = table.lookup(t.node, t.state, t.dest);
            if (t.state > 0)
                q.in_dir = Direction::fromId(static_cast<DirId>(t.state - 1));
            q.here = t.node;
            q.dest = t.dest;
            q.packet = queries.size();
            q.port_base = t.node * static_cast<std::uint32_t>(
                                       net.topo->numDirs());
            q.free_slots = free_slots.data();
            q.congestion = congestion.data();
            q.rng = &rng;
            queries.push_back(q);
        }
        const std::size_t reps = std::max<std::size_t>(
            1, 4000000 / queries.size());
        std::uint64_t sink = 0;
        const double t0 = hostSeconds();
        {
            Scope s("select.pick");
            for (std::size_t r = 0; r < reps; ++r) {
                for (const SelectionQuery &q : queries)
                    sink += static_cast<std::uint64_t>(policy->pick(q).id());
            }
        }
        const double t = hostSeconds() - t0;
        tally.check(!queries.empty() && sink > 0,
                    "probe: selection picked nothing");
        put("select.pick_ns",
            t / static_cast<double>(reps * queries.size()) * 1e9, "ns");
    }

    // --- traffic: every node's NodeSource stepped through the cycles
    // the engines would visit, replies scheduled for a closed loop.
    {
        const SimConfig &cfg = classic.cfg;
        const NodeId n = classic.topo->numNodes();
        std::vector<NodeSource> sources =
            buildNodeSources(n, cfg.injection_rate, cfg.lengths,
                             *classic.pattern, cfg.workload, cfg.seed);
        std::vector<SourcedPacket> batch;
        std::vector<double> due(n);
        const double clock = clockCost();
        double next_due_s = 0.0;
        double emit_s = 0.0;
        std::uint64_t next_due_calls = 0;
        std::uint64_t emits = 0;
        const std::uint64_t cycles = probeCycles(*classic.topo);
        Scope s("traffic.probe");
        for (std::uint64_t now = 0; now < cycles; ++now) {
            const double a = hostSeconds();
            for (NodeId v = 0; v < n; ++v)
                due[v] = sources[v].nextDue(true);
            next_due_s += hostSeconds() - a;
            next_due_calls += n;
            for (NodeId v = 0; v < n; ++v) {
                if (due[v] > static_cast<double>(now))
                    continue;
                const double b = hostSeconds();
                sources[v].emit(now, true, batch);
                emit_s += hostSeconds() - b - clock;
                ++emits;
                for (const SourcedPacket &p : batch) {
                    if (cfg.workload.closedLoop() && !p.reply)
                        sources[p.dest].scheduleReply(
                            now + 1 + cfg.workload.think_cycles, p.src,
                            cfg.workload.reply_length);
                }
                batch.clear();
            }
        }
        tracer().add("traffic.next_due_calls",
                     static_cast<double>(next_due_calls));
        tracer().add("traffic.emit_calls", static_cast<double>(emits));
        put("traffic.emit_ns",
            emits ? emit_s / static_cast<double>(emits) * 1e9 : 0.0, "ns");
        put("traffic.next_due_ns",
            next_due_s / static_cast<double>(next_due_calls) * 1e9, "ns");
    }

    // --- sim: the classic engine, unless the round already ran it.
    if (countOf("sim.cycles") == 0.0) {
        SimConfig cfg = classic.cfg;
        cfg.sim_threads = 1;
        std::unique_ptr<NetworkEngine> engine;
        {
            Scope s("sim.construct");
            engine = makeEngine(*classic.routing, *classic.pattern, cfg);
        }
        for (int c = 0; c < 1000; ++c)
            engine->step();
        const std::uint64_t moves0 = engine->counters().flit_moves;
        const std::uint64_t cycles = probeCycles(*classic.topo);
        stepTimed(*engine, cycles, "sim.step");
        tracer().add("sim.cycles", static_cast<double>(cycles));
        tracer().add("sim.flit_moves", static_cast<double>(
                                           engine->counters().flit_moves
                                           - moves0));
        tracer().peak("sim.pool_slots",
                      static_cast<double>(engine->packetPoolCapacity()));
    }
    {
        const double step_s =
            tracer().total("sim.run") + tracer().total("sim.step");
        put("sim.construct_ms", median(tracer().durations("sim.construct"))
                                    * 1e3, "ms");
        put("sim.step_us", step_s / countOf("sim.cycles") * 1e6, "us");
        put("sim.ns_per_flit_move", step_s / countOf("sim.flit_moves") * 1e9,
            "ns");
        put("sim.flit_moves", countOf("sim.flit_moves"), "count");
        put("sim.pool_slots", countOf("sim.pool_slots"), "count");
    }

    // --- router: the VC engine, unless the round already ran it.
    if (countOf("router.cycles") == 0.0) {
        Net net = vcNet(opt);
        net.cfg.sim_threads = 1;
        net.cfg.obs = ObsConfig{};
        std::unique_ptr<NetworkEngine> engine;
        {
            Scope s("router.construct");
            engine = makeEngine(*net.routing, *net.pattern, net.cfg);
        }
        for (int c = 0; c < 500; ++c)
            engine->step();
        const std::uint64_t moves0 = engine->counters().flit_moves;
        const std::uint64_t cycles = probeCycles(*net.topo) / 2;
        stepTimed(*engine, cycles, "router.block");
        tracer().add("router.cycles", static_cast<double>(cycles));
        tracer().add("router.flit_moves", static_cast<double>(
                                              engine->counters().flit_moves
                                              - moves0));
    }
    {
        const double step_s =
            tracer().total("router.block") + tracer().total("router.drain");
        put("router.construct_ms",
            median(tracer().durations("router.construct")) * 1e3, "ms");
        put("router.step_us", step_s / countOf("router.cycles") * 1e6, "us");
        put("router.ns_per_flit_move",
            step_s / countOf("router.flit_moves") * 1e9, "ns");
        put("router.flit_moves", countOf("router.flit_moves"), "count");
    }

    // --- exec: one sweep point, unless the round ran the sweep.
    if (tracer().durations("exec.point").empty()) {
        SimConfig cfg = classic.cfg;
        cfg.warmup_cycles = 1000;
        cfg.measure_cycles = probeCycles(*classic.topo);
        cfg.sim_threads = 1;
        cfg.obs = ObsConfig{};
        SweepSeries series;
        {
            Scope s("exec.point");
            series.points.push_back(runSweepPoint(
                *classic.routing, *classic.pattern, cfg, cfg.injection_rate));
        }
        truncateAtSaturation(series, kStopAfterSaturated);
        tracer().add("exec.points_kept",
                     static_cast<double>(series.points.size()));
    }
    {
        const std::vector<double> points = tracer().durations("exec.point");
        put("exec.point_ms", median(points) * 1e3, "ms");
        put("exec.points_run", static_cast<double>(points.size()), "count");
        put("exec.points_kept", countOf("exec.points_kept"), "count");
    }

    // --- shard: the classic network stepped on one and on two
    // shards. Both must simulate identically.
    std::vector<double> latencies;
    {
        const std::uint64_t cycles = probeCycles(*classic.topo);
        NetworkCounters counters[2];
        for (unsigned shards = 1; shards <= 2; ++shards) {
            SimConfig cfg = classic.cfg;
            cfg.sim_threads = shards;
            cfg.obs = ObsConfig{};
            const std::unique_ptr<NetworkEngine> engine =
                makeEngine(*classic.routing, *classic.pattern, cfg);
            for (int c = 0; c < 500; ++c)
                engine->step();
            const std::string span =
                "shard.step_" + std::to_string(shards);
            stepTimed(*engine, cycles, span);
            put("shard.step_us_" + std::to_string(shards),
                tracer().total(span) / static_cast<double>(cycles) * 1e6,
                "us");
            counters[shards - 1] = engine->counters();
            if (shards == 1) {
                std::vector<Completion> done;
                engine->drainCompletions(done);
                for (const Completion &c : done)
                    latencies.push_back(c.delivered - c.created);
            }
        }
        tally.check(counters[0].flit_moves == counters[1].flit_moves
                        && counters[0].flits_delivered
                            == counters[1].flits_delivered,
                    "probe: two shards simulated differently from one");
    }

    // --- util: one P² quantile update, over the shard probe's
    // packet latencies.
    {
        if (latencies.empty())
            latencies.push_back(1.0);
        const std::size_t reps =
            std::max<std::size_t>(1, 2000000 / latencies.size());
        P2Quantile p99(0.99);
        const double t0 = hostSeconds();
        {
            Scope s("util.p2_add");
            for (std::size_t r = 0; r < reps; ++r) {
                for (double x : latencies)
                    p99.add(x);
            }
        }
        const double t = hostSeconds() - t0;
        tally.check(p99.value() > 0.0, "probe: P2 estimate is not positive");
        put("util.p2_add_ns",
            t / static_cast<double>(reps * latencies.size()) * 1e9, "ns");
    }
    return out;
}

} // namespace perfbench
