/**
 * @file
 * Tests for the time-series sampler: window bookkeeping in isolation
 * and the sample series a Simulator produces when the stride knob is
 * set — contiguous windows covering the measurement span, per-window
 * deliveries summing to exactly the flits delivered in the measurement
 * window (warmup deliveries excluded), and the p99 clamp flag
 * propagating from the histogram.
 */

#include <gtest/gtest.h>

#include "core/routing/factory.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "topology/mesh.hpp"
#include "traffic/pattern.hpp"

namespace turnmodel {
namespace {

TEST(TimeSeriesSampler, ClosesContiguousWindowsOnStride)
{
    // 40 flits were delivered before the window opened (warmup).
    TimeSeriesSampler sampler(100, /*flits=*/40, 50, 1000.0);
    sampler.onCompletion(10.0);
    sampler.onCompletion(20.0);
    for (std::uint64_t now = 101; now <= 160; ++now)
        sampler.onCycle(now, /*flits=*/40 + now - 100, /*queue=*/3);

    ASSERT_EQ(sampler.samples().size(), 1u);
    const WindowSample &w = sampler.samples()[0];
    EXPECT_EQ(w.start_cycle, 100u);
    EXPECT_EQ(w.end_cycle, 150u);
    EXPECT_EQ(w.packets_completed, 2u);
    EXPECT_EQ(w.flits_delivered, 50u);
    EXPECT_DOUBLE_EQ(w.latency_mean_cycles, 15.0);
    EXPECT_DOUBLE_EQ(w.latency_max_cycles, 20.0);
    EXPECT_FALSE(w.latency_p99_clamped);
    EXPECT_EQ(w.source_queue_packets, 3u);
}

TEST(TimeSeriesSampler, FinishClosesPartialWindow)
{
    TimeSeriesSampler sampler(0, 0, 100, 1000.0);
    sampler.onCompletion(5.0);
    sampler.onCycle(60, 7, 0);
    ASSERT_TRUE(sampler.samples().empty());
    sampler.finish(60, 7, 0);
    ASSERT_EQ(sampler.samples().size(), 1u);
    EXPECT_EQ(sampler.samples()[0].start_cycle, 0u);
    EXPECT_EQ(sampler.samples()[0].end_cycle, 60u);
    EXPECT_EQ(sampler.samples()[0].flits_delivered, 7u);
    // Finishing exactly on a closed boundary adds nothing.
    sampler.finish(60, 7, 0);
    EXPECT_EQ(sampler.samples().size(), 1u);
}

TEST(TimeSeriesSampler, FlagsClampedWindowP99)
{
    TimeSeriesSampler sampler(0, 0, 10, /*latency_hi=*/50.0);
    for (int i = 0; i < 20; ++i)
        sampler.onCompletion(500.0);   // All beyond the histogram.
    sampler.onCycle(10, 20, 0);
    ASSERT_EQ(sampler.samples().size(), 1u);
    EXPECT_TRUE(sampler.samples()[0].latency_p99_clamped);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].latency_p99_cycles, 50.0);
    // The true maximum is still reported unclamped alongside.
    EXPECT_DOUBLE_EQ(sampler.samples()[0].latency_max_cycles, 500.0);
}

// ----- through the Simulator -----------------------------------------

TEST(TimeSeriesSampler, SimulatorSeriesCoversMeasurementWindow)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    RoutingPtr routing = makeRouting("xy", mesh);
    PatternPtr pattern = makePattern("uniform", mesh);
    SimConfig config;
    config.injection_rate = 0.05;
    config.warmup_cycles = 500;
    config.measure_cycles = 2000;
    config.obs.sample_stride = 250;

    Simulator sim(*routing, *pattern, config);
    const SimResult result = sim.run();
    ASSERT_FALSE(result.deadlocked);

    const ObsReport report = sim.obsReport();
    ASSERT_EQ(report.samples.size(), 8u);
    std::uint64_t delivered_in_windows = 0;
    for (std::size_t i = 0; i < report.samples.size(); ++i) {
        const WindowSample &w = report.samples[i];
        EXPECT_EQ(w.end_cycle - w.start_cycle, 250u);
        if (i > 0) {
            EXPECT_EQ(w.start_cycle, report.samples[i - 1].end_cycle);
        }
        delivered_in_windows += w.flits_delivered;
    }
    EXPECT_EQ(report.samples.front().start_cycle, 500u);
    EXPECT_EQ(report.samples.back().end_cycle, 2500u);

    // The run is deterministic, so a twin engine stepped through the
    // warmup alone delivers exactly the flits the windows must omit.
    const auto twin = makeEngine(*routing, *pattern, config);
    for (std::uint64_t c = 0; c < config.warmup_cycles; ++c)
        twin->step();
    const std::uint64_t warmup_flits = twin->counters().flits_delivered;
    ASSERT_GT(warmup_flits, 0u);
    EXPECT_EQ(delivered_in_windows,
              sim.network().counters().flits_delivered - warmup_flits);
}

TEST(TimeSeriesSampler, SamplerDoesNotPerturbResults)
{
    NDMesh mesh = NDMesh::mesh2D(4, 4);
    PatternPtr pattern = makePattern("transpose", mesh);
    SimConfig config;
    config.injection_rate = 0.06;
    config.warmup_cycles = 500;
    config.measure_cycles = 2000;

    RoutingPtr r1 = makeRouting("west-first", mesh);
    Simulator plain(*r1, *pattern, config);
    const SimResult without = plain.run();

    config.obs.sample_stride = 100;
    config.obs.channel_counters = true;
    config.obs.trace_capacity = 256;
    RoutingPtr r2 = makeRouting("west-first", mesh);
    Simulator observed(*r2, *pattern, config);
    const SimResult with = observed.run();

    EXPECT_EQ(without.packets_measured, with.packets_measured);
    EXPECT_DOUBLE_EQ(without.avg_latency_us, with.avg_latency_us);
    EXPECT_DOUBLE_EQ(without.throughput_flits_per_us,
                     with.throughput_flits_per_us);
    EXPECT_DOUBLE_EQ(without.p99_latency_us, with.p99_latency_us);
    EXPECT_EQ(without.saturated, with.saturated);
}

} // namespace
} // namespace turnmodel
