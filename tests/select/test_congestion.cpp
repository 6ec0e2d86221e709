/**
 * @file
 * Unit tests for the incremental blocked-EWMA state both engines
 * share (select/congestion.hpp): over random ownership and forwarding
 * histories on a two-shard network, the live-port updates, router-sum
 * deltas and on-demand regional scores must equal a full recompute of
 * every port and router each cycle, and a port must leave its live
 * list once it is free with a zero EWMA.
 */

#include <gtest/gtest.h>

#include <vector>

#include "select/congestion.hpp"
#include "util/rng.hpp"

namespace turnmodel {
namespace {

constexpr NodeId kNodes = 6;
constexpr int kPorts = 5;   // Four network ports plus the local one.
constexpr std::uint32_t kTotal = kNodes * kPorts;

/** The full-scan computation the incremental state replaces. */
struct Reference
{
    std::vector<std::int32_t> ewma = std::vector<std::int32_t>(kTotal);
    std::vector<std::uint32_t> sum = std::vector<std::uint32_t>(kNodes);

    void update(const std::vector<std::uint8_t> &owned,
                const std::vector<std::uint64_t> &fwd,
                std::uint64_t cycle)
    {
        for (std::uint32_t p = 0; p < kTotal; ++p) {
            const bool blocked = owned[p] && fwd[p] != cycle;
            ewma[p] += ((blocked ? 1 << 16 : 0) - ewma[p]) >> 6;
        }
        for (NodeId v = 0; v < kNodes; ++v) {
            sum[v] = 0;
            for (int d = 0; d < kPorts - 1; ++d)
                sum[v] +=
                    static_cast<std::uint32_t>(ewma[v * kPorts + d]);
        }
    }
};

TEST(BlockedCongestion, MatchesFullRecomputeAndEmptiesLiveLists)
{
    Rng rng(7);
    // Random channel wiring; the local ports and some edge ports
    // lead nowhere.
    std::vector<std::int32_t> out_to_in(kTotal, -1);
    for (std::uint32_t p = 0; p < kTotal; ++p) {
        if (p % kPorts != kPorts - 1 && rng.nextBounded(4) != 0)
            out_to_in[p] =
                static_cast<std::int32_t>(rng.nextBounded(kTotal));
    }
    const std::vector<std::uint32_t> shard_ports = {0, 3 * kPorts,
                                                    kTotal};
    BlockedCongestion state;
    EXPECT_FALSE(state.enabled());
    state.configure(kNodes, kPorts, out_to_in, shard_ports);
    ASSERT_TRUE(state.enabled());

    Reference ref;
    std::vector<std::uint8_t> owned(kTotal, 0);
    std::vector<std::uint64_t> fwd(kTotal, ~0ULL);
    const auto shardOf = [](std::uint32_t p) {
        return p < 3 * kPorts ? 0u : 1u;
    };
    for (std::uint64_t cycle = 0; cycle < 4000; ++cycle) {
        const bool busy = cycle < 2000;
        for (std::uint32_t p = 0; p < kTotal; ++p) {
            // Allocation: a free port may be taken (and a few are
            // released again within the same cycle).
            if (busy && !owned[p] && rng.nextBounded(8) == 0) {
                owned[p] = 1;
                state.noteOwned(shardOf(p), p);
                if (rng.nextBounded(4) == 0)
                    owned[p] = 0;
            }
            if (owned[p] && rng.nextBounded(2) == 0) {
                fwd[p] = cycle;
                state.noteForward(p, cycle);
            }
            // Release: a tail left, or the wind-down freed it.
            if (owned[p] && (!busy || rng.nextBounded(6) == 0))
                owned[p] = 0;
        }
        for (std::uint32_t s = 0; s < 2; ++s) {
            state.update(s, cycle, [&](std::uint32_t p) {
                return owned[p] != 0;
            });
        }
        ref.update(owned, fwd, cycle);

        for (std::uint32_t p = 0; p < kTotal; ++p)
            ASSERT_EQ(ref.ewma[p], state.ewma(p)) << "cycle " << cycle;
        for (NodeId v = 0; v < kNodes; ++v)
            ASSERT_EQ(ref.sum[v], state.routerSum(v))
                << "cycle " << cycle;
        // On-demand scores for a random candidate set per router.
        for (NodeId v = 0; v < kNodes; ++v) {
            DirectionSet candidates;
            for (int d = 0; d < kPorts - 1; ++d) {
                if (rng.nextBounded(2) == 0)
                    candidates.insert(
                        Direction::fromId(static_cast<DirId>(d)));
            }
            const std::uint32_t base = v * kPorts;
            const std::uint32_t *scores =
                state.scores(base, candidates);
            for (Direction d : candidates) {
                const std::uint32_t p = base + d.id();
                std::uint32_t expect =
                    static_cast<std::uint32_t>(ref.ewma[p]);
                if (out_to_in[p] >= 0) {
                    expect += ref.sum[static_cast<std::uint32_t>(
                                          out_to_in[p]) / kPorts];
                }
                ASSERT_EQ(expect, scores[p]) << "cycle " << cycle;
            }
        }
        if (cycle == 1999) {
            EXPECT_GT(state.liveCount(0) + state.liveCount(1), 0u);
        }
    }
    // Two thousand idle cycles decay every EWMA to zero, and every
    // port has left the live lists.
    for (std::uint32_t p = 0; p < kTotal; ++p)
        EXPECT_EQ(state.ewma(p), 0);
    EXPECT_EQ(state.liveCount(0), 0u);
    EXPECT_EQ(state.liveCount(1), 0u);
}

} // namespace
} // namespace turnmodel
