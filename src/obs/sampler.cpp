#include "obs/sampler.hpp"

#include "util/logging.hpp"

namespace turnmodel {

TimeSeriesSampler::TimeSeriesSampler(std::uint64_t start_cycle,
                                     std::uint64_t flits_delivered_total,
                                     std::uint64_t stride,
                                     double latency_hi,
                                     std::size_t bins)
    : stride_(stride), window_start_(start_cycle),
      window_flits_base_(flits_delivered_total),
      window_hist_(0.0, latency_hi > 0.0 ? latency_hi : 1.0, bins)
{
    TM_ASSERT(stride >= 1, "sampler stride must be positive");
}

void
TimeSeriesSampler::onCompletion(double latency_cycles)
{
    window_latency_.add(latency_cycles);
    window_hist_.add(latency_cycles);
}

void
TimeSeriesSampler::onCycle(std::uint64_t now,
                           std::uint64_t flits_delivered_total,
                           std::uint64_t source_queue_packets)
{
    if (windowDue(now))
        closeWindow(now, flits_delivered_total, source_queue_packets);
}

void
TimeSeriesSampler::finish(std::uint64_t now,
                          std::uint64_t flits_delivered_total,
                          std::uint64_t source_queue_packets)
{
    if (now > window_start_)
        closeWindow(now, flits_delivered_total, source_queue_packets);
}

void
TimeSeriesSampler::closeWindow(std::uint64_t now,
                               std::uint64_t flits_delivered_total,
                               std::uint64_t source_queue_packets)
{
    WindowSample sample;
    sample.start_cycle = window_start_;
    sample.end_cycle = now;
    sample.flits_delivered = flits_delivered_total - window_flits_base_;
    sample.packets_completed = window_latency_.count();
    sample.latency_mean_cycles = window_latency_.mean();
    sample.latency_max_cycles = window_latency_.max();
    sample.latency_p99_cycles =
        window_hist_.quantile(0.99, &sample.latency_p99_clamped);
    sample.source_queue_packets = source_queue_packets;
    samples_.push_back(sample);

    window_start_ = now;
    window_flits_base_ = flits_delivered_total;
    window_latency_.reset();
    window_hist_.reset();
}

} // namespace turnmodel
