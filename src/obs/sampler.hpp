/**
 * @file
 * Periodic time-series sampler for the measurement driver: every
 * stride cycles it closes one sample window recording throughput
 * (flits delivered), completion count, latency mean/max/p99, and the
 * source queue population at the window boundary. The resulting
 * series shows *when* a run degrades (queues ramping, latency tail
 * exploding), which the end-of-run aggregates cannot.
 */

#ifndef TURNMODEL_OBS_SAMPLER_HPP
#define TURNMODEL_OBS_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace turnmodel {

/** One closed sample window. */
struct WindowSample
{
    std::uint64_t start_cycle = 0;
    std::uint64_t end_cycle = 0;            ///< Exclusive.
    std::uint64_t flits_delivered = 0;      ///< Within the window.
    std::uint64_t packets_completed = 0;    ///< Completions counted.
    double latency_mean_cycles = 0.0;
    double latency_max_cycles = 0.0;
    double latency_p99_cycles = 0.0;
    bool latency_p99_clamped = false;       ///< p99 hit the histogram bound.
    std::uint64_t source_queue_packets = 0; ///< At window close.
};

/** Accumulates completions and closes windows on stride boundaries. */
class TimeSeriesSampler
{
  public:
    /**
     * @param start_cycle First cycle of the measurement window.
     * @param flits_delivered_total The driver's running flit total
     *                    at @p start_cycle; the first window counts
     *                    deliveries from there on.
     * @param stride      Cycles per sample window; must be >= 1.
     * @param latency_hi  Upper bound of the per-window latency
     *                    histogram (cycles); p99 beyond it is clamped
     *                    and flagged.
     * @param bins        Histogram bins per window.
     */
    TimeSeriesSampler(std::uint64_t start_cycle,
                      std::uint64_t flits_delivered_total,
                      std::uint64_t stride, double latency_hi,
                      std::size_t bins = 256);

    /** One measured completion with the given latency in cycles. */
    void onCompletion(double latency_cycles);

    /**
     * Advance to @p now (cycles); closes a window when the stride is
     * reached. @p flits_delivered_total and @p source_queue_packets
     * are the driver's running totals at @p now.
     */
    void onCycle(std::uint64_t now, std::uint64_t flits_delivered_total,
                 std::uint64_t source_queue_packets);

    /** Whether onCycle(@p now, ...) closes a window — the only time it
     * reads its running totals, so a driver may skip costly ones
     * (the source-queue scan) on the other cycles. */
    bool windowDue(std::uint64_t now) const
    {
        return now - window_start_ >= stride_;
    }

    /** Close any partial final window (end of run or deadlock). */
    void finish(std::uint64_t now, std::uint64_t flits_delivered_total,
                std::uint64_t source_queue_packets);

    const std::vector<WindowSample> &samples() const
    {
        return samples_;
    }

  private:
    void closeWindow(std::uint64_t now,
                     std::uint64_t flits_delivered_total,
                     std::uint64_t source_queue_packets);

    std::uint64_t stride_;
    std::uint64_t window_start_;
    std::uint64_t window_flits_base_;
    RunningStats window_latency_;
    Histogram window_hist_;
    std::vector<WindowSample> samples_;
};

} // namespace turnmodel

#endif // TURNMODEL_OBS_SAMPLER_HPP
