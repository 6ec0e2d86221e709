#include "sim/simulator.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace turnmodel {

Simulator::Simulator(const RoutingAlgorithm &routing,
                     const TrafficPattern &pattern,
                     const SimConfig &config)
    : config_(config), network_(makeEngine(routing, pattern, config))
{
}

SimResult
Simulator::run()
{
    SimResult result;
    const double cycle_us = config_.cycleUs();

    // One completion buffer for the whole run, drained into every
    // cycle: the buffer and the network's internal list ping-pong
    // their storage, so the measurement loop never allocates.
    std::vector<Completion> batch;

    // Warmup: run and discard.
    for (std::uint64_t c = 0; c < config_.warmup_cycles; ++c) {
        network_->step();
        if (network_->deadlockDetected())
            break;
    }
    network_->drainCompletions(batch);

    // A deadlock during warmup means there is no steady state to
    // measure: entering the measurement loop anyway would report a
    // window of frozen-network cycles as if it were data. Report a
    // zero-width window instead.
    if (network_->deadlockDetected()) {
        result.offered_flits_per_us = config_.injection_rate
            * static_cast<double>(network_->topology().numNodes())
            * config_.channel_flits_per_us;
        result.deadlocked = true;
        result.saturated = true;
        return result;
    }

    const double measure_start = static_cast<double>(network_->now());
    const std::uint64_t flits_delivered_before =
        network_->counters().flits_delivered;
    const std::uint64_t queue_before = network_->sourceQueuePackets();

    RunningStats latency;
    RunningStats net_latency;
    RunningStats hops;
    // Streaming P² estimator: constant memory at any window length
    // (the fixed-range histogram it replaced clamped long-horizon
    // soak runs into its overflow bin).
    P2Quantile latency_p99(0.99);

    if (config_.obs.sample_stride > 0) {
        sampler_.emplace(network_->now(), flits_delivered_before,
                         config_.obs.sample_stride,
                         static_cast<double>(config_.measure_cycles));
    }

    const auto absorb = [&](const std::vector<Completion> &batch) {
        for (const Completion &done : batch) {
            // Only packets created after warmup contribute to the
            // latency statistics; throughput counts every flit.
            if (done.created < measure_start)
                continue;
            const double lat = done.delivered - done.created;
            latency.add(lat);
            latency_p99.add(lat);
            net_latency.add(done.delivered - done.injected);
            hops.add(static_cast<double>(done.hops));
            if (sampler_)
                sampler_->onCompletion(lat);
        }
    };

    for (std::uint64_t c = 0; c < config_.measure_cycles; ++c) {
        network_->step();
        if (network_->deadlockDetected())
            break;
        network_->drainCompletions(batch);
        absorb(batch);
        if (sampler_ && sampler_->windowDue(network_->now())) {
            sampler_->onCycle(network_->now(),
                              network_->counters().flits_delivered,
                              network_->sourceQueuePackets());
        }
    }
    // The deadlock break above skips the in-loop drain, losing any
    // completions the tripping cycle produced; collect them here.
    network_->drainCompletions(batch);
    absorb(batch);
    if (sampler_) {
        sampler_->finish(network_->now(),
                         network_->counters().flits_delivered,
                         network_->sourceQueuePackets());
    }

    const double measured_cycles =
        static_cast<double>(network_->now()) - measure_start;
    const double window_us = measured_cycles * cycle_us;
    const std::uint64_t delivered =
        network_->counters().flits_delivered - flits_delivered_before;

    // rate is flits per node per cycle; one cycle is 1/channel-rate us.
    result.offered_flits_per_us = config_.injection_rate
        * static_cast<double>(network_->topology().numNodes())
        * config_.channel_flits_per_us;
    result.throughput_flits_per_us =
        window_us > 0.0 ? static_cast<double>(delivered) / window_us : 0.0;
    result.avg_latency_us = latency.mean() * cycle_us;
    result.avg_network_latency_us = net_latency.mean() * cycle_us;
    result.p99_latency_us = latency_p99.value() * cycle_us;
    result.avg_hops = hops.mean();
    result.packets_measured = latency.count();
    result.deadlocked = network_->deadlockDetected();

    const std::uint64_t queue_after = network_->sourceQueuePackets();
    const double growth = queue_after > queue_before
        ? static_cast<double>(queue_after - queue_before)
        : 0.0;
    result.queue_growth_packets = growth
        / static_cast<double>(network_->topology().numNodes());
    const double num_nodes =
        static_cast<double>(network_->topology().numNodes());
    const double offered_flits =
        config_.injection_rate * num_nodes * measured_cycles;
    // Clamp to 1.0: the window's delivered count includes flits
    // injected during warmup (backlog draining inside the window) and
    // closed-loop replies, neither of which the offered-load
    // denominator counts, so the raw quotient can exceed 1.0 without
    // the network ever delivering more than was sent. The saturation
    // criterion below uses the unclamped shortfall, which is immune:
    // spillover only makes the shortfall negative, never saturated.
    result.delivered_ratio = offered_flits > 0.0
        ? std::min(static_cast<double>(delivered) / offered_flits, 1.0)
        : 1.0;
    // Sustainable while the backlog stays small and bounded: flag
    // saturation when the average source queue grew by more than two
    // packets per node over the window, or when the network delivered
    // well below the offered load (catches short windows where the
    // absolute queue growth has not yet crossed the threshold). The
    // ratio criterion only applies once the shortfall exceeds one
    // average packet per node — at light loads a few packets still in
    // flight at the window boundary dominate the ratio.
    const double shortfall =
        offered_flits - static_cast<double>(delivered);
    result.saturated = result.queue_growth_packets > 2.0
        || (result.delivered_ratio < 0.75
            && shortfall > num_nodes * config_.lengths.mean())
        || result.deadlocked;
    return result;
}

ObsReport
Simulator::obsReport() const
{
    ObsReport report;
    report.topology = network_->topology().name();
    network_->fillObsReport(report);
    if (sampler_)
        report.samples = sampler_->samples();
    return report;
}

} // namespace turnmodel
