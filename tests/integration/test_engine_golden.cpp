/**
 * @file
 * Differential golden suite for the wormhole engine. Every case runs
 * real sweeps through the public experiment API, serializes the
 * results with the exact round-trip JSON writers, and compares the
 * bytes against golden files captured from the pre-packet-pool seed
 * engine (commit 32b5d7f). The engine's internals are free to change
 * — packet storage, scratch buffers, arbitration bookkeeping — but
 * these bytes are not: same completions, same metrics, same obs
 * output, with the observer on or off, at any job count.
 *
 * Regenerate (only when an intentional behavior change is made) with
 *   TURNMODEL_REGEN_GOLDEN=1 ./tests/test_integration \
 *       --gtest_filter='EngineGolden.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/routing/factory.hpp"
#include "core/routing/turn_table.hpp"
#include "exec/result_sink.hpp"
#include "exec/runner.hpp"
#include "topology/mesh.hpp"
#include "topology/virtual_channels.hpp"
#include "traffic/permutation.hpp"

namespace turnmodel {
namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(TURNMODEL_TEST_DATA_DIR) + "/" + name;
}

/**
 * Compare @p actual byte-for-byte against the named golden file, or
 * rewrite the file when TURNMODEL_REGEN_GOLDEN is set.
 */
void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("TURNMODEL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with TURNMODEL_REGEN_GOLDEN=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "engine output diverged from the seed engine (" << name
        << ")";
}

std::string
seriesJson(const ExperimentResult &result)
{
    std::ostringstream os;
    writeSeriesJson(os, result.experiment, result.series);
    return os.str();
}

std::string
obsJson(const ObsStudy &study)
{
    std::ostringstream os;
    ResultSink::writeObsJson(os, study);
    return os.str();
}

/**
 * Run @p spec at jobs 1, 4, and 8; assert the three serializations
 * are identical and return the bytes.
 */
std::string
runAtAllJobCounts(const ExperimentSpec &spec)
{
    std::string first;
    for (unsigned jobs : {1u, 4u, 8u}) {
        Runner runner(jobs);
        const std::string bytes = seriesJson(runner.run(spec));
        if (first.empty())
            first = bytes;
        else
            EXPECT_EQ(first, bytes)
                << "series diverged at --jobs=" << jobs;
    }
    return first;
}

/** Quarter-rotation permutation (as in the deadlock tests). */
class RotationPattern : public PermutationTraffic
{
  public:
    explicit RotationPattern(const Topology &topo)
        : PermutationTraffic(topo)
    {
    }

    NodeId map(NodeId src) const override
    {
        const Coords c = topo_.coords(src);
        const int m = topo_.radix(0);
        return topo_.node({c[1], m - 1 - c[0]});
    }

    std::string name() const override { return "rotation"; }
};

TEST(EngineGolden, Fig13SweepPoints)
{
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    ExperimentSpec spec;
    spec.name = "golden-fig13";
    spec.topology = &mesh;
    spec.pattern = "uniform";
    spec.algorithms = {"xy", "west-first", "north-last",
                       "negative-first"};
    spec.injection_rates = {0.05, 0.14, 0.22};
    spec.sim.warmup_cycles = 1000;
    spec.sim.measure_cycles = 3000;
    checkGolden("golden_fig13.json", runAtAllJobCounts(spec));
}

TEST(EngineGolden, Fig14SweepPoints)
{
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    ExperimentSpec spec;
    spec.name = "golden-fig14";
    spec.topology = &mesh;
    spec.pattern = "transpose";
    spec.algorithms = {"west-first", "negative-first"};
    spec.injection_rates = {0.04, 0.10};
    spec.sim.warmup_cycles = 1000;
    spec.sim.measure_cycles = 3000;
    checkGolden("golden_fig14.json", runAtAllJobCounts(spec));
}

TEST(EngineGolden, AllMeshPatterns)
{
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    std::string all;
    for (const char *pattern :
         {"uniform", "transpose", "bit-complement", "tornado",
          "hotspot:0.1"}) {
        ExperimentSpec spec;
        spec.name = std::string("golden-pattern-") + pattern;
        spec.topology = &mesh;
        spec.pattern = pattern;
        spec.algorithms = {"xy", "west-first"};
        spec.injection_rates = {0.08, 0.15};
        spec.sim.warmup_cycles = 800;
        spec.sim.measure_cycles = 2500;
        Runner runner(2);
        all += seriesJson(runner.run(spec));
    }
    checkGolden("golden_patterns.json", all);
}

TEST(EngineGolden, DeadlockWatchdogTrip)
{
    // A fully adaptive minimal turn table deadlocks under rotation
    // traffic; the watchdog trips inside the measurement window, and
    // the completions drained on the tripping cycle must be kept.
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    ExperimentSpec spec;
    spec.name = "golden-deadlock";
    spec.topology = &mesh;
    spec.pattern = "rotation";
    spec.algorithms = {"fully-adaptive"};
    spec.injection_rates = {0.9};
    spec.sim.warmup_cycles = 500;
    spec.sim.measure_cycles = 8000;
    spec.sim.deadlock_threshold = 1200;
    spec.sim.output_selection = OutputSelection::Random;
    spec.make_routing = [](const std::string &name,
                           const Topology &topo) -> RoutingPtr {
        TurnSet all(2);
        all.allowAll90();
        all.allowAllStraight();
        return std::make_unique<TurnTableRouting>(topo, all, true,
                                                  name);
    };
    spec.make_pattern = [](const std::string &,
                           const Topology &topo) -> PatternPtr {
        return std::make_unique<RotationPattern>(topo);
    };
    const std::string bytes = runAtAllJobCounts(spec);
    EXPECT_NE(bytes.find("\"deadlocked\": true"), std::string::npos)
        << "the scenario no longer trips the watchdog";
    checkGolden("golden_deadlock.json", bytes);
}

TEST(EngineGolden, UncompiledRoutingPath)
{
    // The virtual-dispatch decision path (compiled_routing off) must
    // produce the same bytes as ever, too.
    NDMesh mesh = NDMesh::mesh2D(8, 8);
    ExperimentSpec spec;
    spec.name = "golden-uncompiled";
    spec.topology = &mesh;
    spec.pattern = "uniform";
    spec.algorithms = {"west-first"};
    spec.injection_rates = {0.10};
    spec.sim.warmup_cycles = 800;
    spec.sim.measure_cycles = 2500;
    spec.sim.compiled_routing = false;
    Runner runner(1);
    checkGolden("golden_uncompiled.json",
                seriesJson(runner.run(spec)));
}

TEST(EngineGolden, ObservedRunsMatchAndObserverStaysPassive)
{
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    ExperimentSpec spec;
    spec.name = "golden-obs";
    spec.topology = &mesh;
    spec.pattern = "uniform";
    spec.algorithms = {"xy", "west-first"};
    spec.sim.warmup_cycles = 1000;
    spec.sim.measure_cycles = 3000;

    ObsConfig obs;
    obs.channel_counters = true;
    obs.sample_stride = 500;
    obs.trace_capacity = 512;

    const double rate = 0.14;
    std::string first;
    ObsStudy study;
    for (unsigned jobs : {1u, 4u}) {
        Runner runner(jobs);
        study = runner.runObs(spec, rate, obs);
        const std::string bytes = obsJson(study);
        if (first.empty())
            first = bytes;
        else
            EXPECT_EQ(first, bytes)
                << "obs study diverged at --jobs=" << jobs;
    }
    checkGolden("golden_obs.json", first);

    // The observer is passive: an observed run's SimResult is
    // byte-identical to the same run with observability off.
    for (const ObsRun &run : study.runs) {
        const RoutingPtr routing = makeRouting(run.algorithm, mesh);
        const PatternPtr pattern = makePattern(spec.pattern, mesh);
        const SweepPoint plain =
            runSweepPoint(*routing, *pattern, spec.sim, rate);
        std::ostringstream with_obs, without_obs;
        writeSimResultJson(with_obs, run.result);
        writeSimResultJson(without_obs, plain.result);
        EXPECT_EQ(without_obs.str(), with_obs.str())
            << run.algorithm;
    }
}

TEST(EngineGolden, ShardedSteppingMatchesTheGoldenBytes)
{
    // The sharded two-phase core must produce the serial engine's
    // exact bytes at every shard count, for both engines. jobs=1
    // keeps the runner from clamping sim_threads.
    NDMesh mesh = NDMesh::mesh2D(16, 16);
    ExperimentSpec spec;
    spec.name = "golden-sharded";
    spec.topology = &mesh;
    spec.pattern = "uniform";
    spec.algorithms = {"xy", "negative-first"};
    spec.injection_rates = {0.08, 0.16};
    spec.sim.warmup_cycles = 1000;
    spec.sim.measure_cycles = 3000;

    for (RouterModel model :
         {RouterModel::Classic, RouterModel::VcCredit}) {
        spec.sim.router_model = model;
        spec.sim.buffer_depth =
            model == RouterModel::VcCredit ? 4 : 1;
        std::string first;
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            spec.sim.sim_threads = threads;
            Runner runner(1);
            const std::string bytes = seriesJson(runner.run(spec));
            if (first.empty())
                first = bytes;
            else
                EXPECT_EQ(first, bytes)
                    << "series diverged at --sim-threads=" << threads;
        }
        checkGolden(model == RouterModel::VcCredit
                        ? "golden_sharded_vc.json"
                        : "golden_sharded.json",
                    first);
    }
}

TEST(EngineGolden, VcAllocatorAndSelection)
{
    // The credit VC engine where its switch allocator contends and
    // its congestion bookkeeping steers: two VCs per direction under
    // escape-VC west-first, uniform traffic up to saturation, every
    // congestion-reading selection policy, both separable allocator
    // orders, credit and ideal flow control, at 1, 2 and 4 shards.
    const VirtualizedMesh vmesh = VirtualizedMesh::uniform({8, 8}, 2);
    std::string all;
    std::string input_first_credit;
    for (const char *policy : {"regional", "local-congestion", ""}) {
        for (SwitchArbiter arbiter :
             {SwitchArbiter::InputFirst, SwitchArbiter::OutputFirst}) {
            for (bool ideal : {false, true}) {
                ExperimentSpec spec;
                spec.name = std::string("golden-vc-alloc-") +
                    (*policy ? policy : "default") + "-" +
                    toString(arbiter) + (ideal ? "-ideal" : "-credit");
                spec.topology = &vmesh;
                spec.pattern = "uniform";
                spec.algorithms = {"vc:west-first"};
                spec.injection_rates = {0.15, 0.22, 0.30};
                spec.sim.warmup_cycles = 500;
                spec.sim.measure_cycles = 3000;
                spec.sim.router_model = RouterModel::VcCredit;
                spec.sim.buffer_depth = 4;
                spec.sim.selection_policy = policy;
                spec.sim.vc_router.arbiter = arbiter;
                spec.sim.vc_router.ideal_credits = ideal;
                std::string first;
                for (unsigned threads : {1u, 2u, 4u}) {
                    spec.sim.sim_threads = threads;
                    Runner runner(1);
                    const std::string bytes =
                        seriesJson(runner.run(spec));
                    if (first.empty())
                        first = bytes;
                    else
                        EXPECT_EQ(first, bytes)
                            << spec.name << " diverged at --sim-threads="
                            << threads;
                }
                // The allocator order must matter here, or the
                // golden would not pin the allocator at all.
                if (!ideal && arbiter == SwitchArbiter::InputFirst)
                    input_first_credit =
                        first.substr(first.find("\"series\""));
                if (!ideal && arbiter == SwitchArbiter::OutputFirst) {
                    EXPECT_NE(input_first_credit,
                              first.substr(first.find("\"series\"")))
                        << "no switch-allocator contention under "
                        << spec.name;
                }
                all += first;
            }
        }
    }
    checkGolden("golden_vc_alloc.json", all);
}

} // namespace
} // namespace turnmodel
