/**
 * @file
 * Unit tests for the round-robin arbiter backing the VC router's
 * separable switch allocator: rotating priority, pointer updates only
 * on confirmed grants, and candidate-order insensitivity (the
 * determinism contract); and for the separable allocator built on
 * it, agreement with a sort-and-group reference allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "router/arbiter.hpp"
#include "util/rng.hpp"

namespace turnmodel {
namespace {

std::uint32_t
pick(const RoundRobinArbiter &arb, std::vector<std::uint32_t> cands)
{
    return arb.select(cands.data(), cands.size());
}

TEST(RoundRobinArbiter, FreshArbiterPicksLowestId)
{
    RoundRobinArbiter arb(8);
    EXPECT_EQ(arb.priority(), 0u);
    EXPECT_EQ(pick(arb, {3, 1, 6}), 1u);
    EXPECT_EQ(pick(arb, {0, 7}), 0u);
}

TEST(RoundRobinArbiter, SelectDoesNotAdvancePriority)
{
    RoundRobinArbiter arb(8);
    EXPECT_EQ(pick(arb, {2, 5}), 2u);
    EXPECT_EQ(pick(arb, {2, 5}), 2u);
    EXPECT_EQ(arb.priority(), 0u);
}

TEST(RoundRobinArbiter, ConfirmMovesPriorityPastWinner)
{
    RoundRobinArbiter arb(4);
    arb.confirm(1);
    EXPECT_EQ(arb.priority(), 2u);
    // Members at or after the pointer win before wrapped ones.
    EXPECT_EQ(pick(arb, {0, 1, 3}), 3u);
    arb.confirm(3);
    EXPECT_EQ(arb.priority(), 0u);   // Wraps at the universe size.
}

TEST(RoundRobinArbiter, CyclesThroughPersistentContenders)
{
    RoundRobinArbiter arb(4);
    std::vector<std::uint32_t> grants;
    for (int i = 0; i < 8; ++i) {
        const std::uint32_t w = pick(arb, {0, 1, 2, 3});
        arb.confirm(w);
        grants.push_back(w);
    }
    EXPECT_EQ(grants,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(RoundRobinArbiter, StarvationFreeUnderAsymmetricLoad)
{
    // Member 2 requests every cycle against rotating competition; it
    // must win within one full rotation.
    RoundRobinArbiter arb(4);
    int waited = 0;
    for (int i = 0; i < 32; ++i) {
        const std::uint32_t other = static_cast<std::uint32_t>(i % 2);
        const std::uint32_t w = pick(arb, {other, 2});
        arb.confirm(w);
        if (w == 2)
            waited = 0;
        else
            ASSERT_LE(++waited, 4);
    }
}

TEST(RoundRobinArbiter, CandidateOrderDoesNotMatter)
{
    RoundRobinArbiter arb(16);
    arb.confirm(9);   // Priority pointer now at 10.
    std::vector<std::uint32_t> cands = {1, 14, 10, 4, 12};
    std::sort(cands.begin(), cands.end());
    do {
        EXPECT_EQ(pick(arb, cands), 10u);
    } while (std::next_permutation(cands.begin(), cands.end()));
}

TEST(RoundRobinArbiter, SingleCandidateAlwaysWins)
{
    RoundRobinArbiter arb(8);
    arb.confirm(5);
    EXPECT_EQ(pick(arb, {3}), 3u);
}

/**
 * Reference separable allocator: each stage sorts the requests by
 * (resource, member), lets each resource's arbiter select among its
 * group, and the grants come out in second-stage resource order;
 * every grant then confirms both its arbiters.
 */
std::vector<SwitchRequest>
referenceAllocate(std::vector<SwitchRequest> reqs,
                  const std::vector<std::uint32_t> &in_res,
                  const std::vector<std::uint32_t> &out_res,
                  std::vector<RoundRobinArbiter> &in_arb,
                  std::vector<RoundRobinArbiter> &out_arb,
                  bool input_first)
{
    const auto stage = [&](const std::vector<SwitchRequest> &from,
                           bool by_input) {
        const auto key = [&](const SwitchRequest &r) {
            return by_input ? in_res[r.in_port] : out_res[r.out_port];
        };
        const auto member = [&](const SwitchRequest &r) {
            return by_input ? r.in_port : r.out_port;
        };
        std::vector<SwitchRequest> sorted = from;
        std::sort(sorted.begin(), sorted.end(),
                  [&](const SwitchRequest &a, const SwitchRequest &b) {
                      if (key(a) != key(b))
                          return key(a) < key(b);
                      return member(a) < member(b);
                  });
        std::vector<SwitchRequest> to;
        std::size_t i = 0;
        while (i < sorted.size()) {
            std::size_t j = i;
            std::vector<std::uint32_t> members;
            while (j < sorted.size() && key(sorted[j]) == key(sorted[i]))
                members.push_back(member(sorted[j++]));
            const RoundRobinArbiter &arb = by_input
                ? in_arb[key(sorted[i])]
                : out_arb[key(sorted[i])];
            const std::uint32_t w =
                arb.select(members.data(), members.size());
            for (std::size_t m = i; m < j; ++m) {
                if (member(sorted[m]) == w)
                    to.push_back(sorted[m]);
            }
            i = j;
        }
        return to;
    };
    reqs = stage(stage(reqs, input_first), !input_first);
    for (const SwitchRequest &g : reqs) {
        in_arb[in_res[g.in_port]].confirm(g.in_port);
        out_arb[out_res[g.out_port]].confirm(g.out_port);
    }
    return reqs;
}

/** Uniform draw in [0, @p bound). */
std::uint32_t
draw(Rng &rng, std::uint32_t bound)
{
    return static_cast<std::uint32_t>(rng.nextBounded(bound));
}

bool
operator==(const SwitchRequest &a, const SwitchRequest &b)
{
    return a.in_port == b.in_port && a.out_port == b.out_port;
}

/**
 * Drive the allocator and the reference through @p rounds random
 * rounds over a shard of @p routers routers (ports_per_router ports
 * mapped onto @p resources_per_router resources, so several ports
 * contend for each), starting at resource @p base. Every round
 * offers a random subset of distinct inputs each asking for a
 * distinct random output; grants and arbiter pointers must agree.
 */
void
expectMatchesReference(std::uint32_t routers,
                       std::uint32_t ports_per_router,
                       std::uint32_t resources_per_router,
                       std::uint32_t base_router, int rounds,
                       std::uint64_t seed)
{
    const std::uint32_t ports = (base_router + routers) *
        ports_per_router;
    const std::uint32_t resources = (base_router + routers) *
        resources_per_router;
    Rng rng(seed);
    // Ports of one router map onto that router's resources, in a
    // scrambled (non-monotone) order, like a virtualized mesh's wires.
    std::vector<std::uint32_t> in_res(ports), out_res(ports);
    for (std::uint32_t p = 0; p < ports; ++p) {
        const std::uint32_t router = p / ports_per_router;
        in_res[p] = router * resources_per_router +
            draw(rng, resources_per_router);
        out_res[p] = router * resources_per_router +
            draw(rng, resources_per_router);
    }
    std::vector<RoundRobinArbiter> in_arb(resources,
                                          RoundRobinArbiter(ports));
    std::vector<RoundRobinArbiter> out_arb = in_arb;
    // Start the pointers anywhere, including the universe's last
    // member, so the cyclic distance wraps from the first round on.
    for (std::uint32_t k = 0; k < resources; ++k) {
        in_arb[k].confirm(draw(rng, ports));
        out_arb[k].confirm(k % 3 == 0 ? ports - 1 : draw(rng, ports));
    }
    std::vector<RoundRobinArbiter> ref_in = in_arb;
    std::vector<RoundRobinArbiter> ref_out = out_arb;

    SeparableAllocator alloc;
    alloc.configure(base_router * resources_per_router,
                    routers * resources_per_router);
    std::vector<std::uint32_t> outs(routers * ports_per_router);
    std::vector<SwitchRequest> reqs;
    std::uint64_t granted = 0, offered = 0;
    for (int round = 0; round < rounds; ++round) {
        const bool input_first = draw(rng, 2) == 0;
        // A random permutation pairs inputs with distinct outputs
        // (router-local, as in the VC engine); a random share of the
        // inputs requests.
        reqs.clear();
        for (std::uint32_t r = 0; r < routers; ++r) {
            const std::uint32_t first =
                (base_router + r) * ports_per_router;
            std::vector<std::uint32_t> perm(ports_per_router);
            std::iota(perm.begin(), perm.end(), first);
            for (std::uint32_t i = ports_per_router - 1; i > 0; --i) {
                std::swap(perm[i], perm[draw(rng, i + 1)]);
            }
            for (std::uint32_t i = 0; i < ports_per_router; ++i) {
                if (draw(rng, 4) != 0)
                    reqs.push_back({first + i, perm[i]});
            }
        }
        // Request order must not matter.
        for (std::size_t i = reqs.size(); i > 1; --i) {
            std::swap(reqs[i - 1],
                      reqs[draw(rng, static_cast<std::uint32_t>(i))]);
        }
        offered += reqs.size();
        const std::vector<SwitchRequest> expected = referenceAllocate(
            reqs, in_res, out_res, ref_in, ref_out, input_first);
        alloc.allocate(reqs, in_res.data(), out_res.data(),
                       in_arb.data(), out_arb.data(), input_first);
        granted += reqs.size();
        ASSERT_EQ(expected.size(), reqs.size()) << "round " << round;
        for (std::size_t i = 0; i < reqs.size(); ++i)
            ASSERT_TRUE(expected[i] == reqs[i])
                << "round " << round << " grant " << i;
        for (std::uint32_t k = 0; k < resources; ++k) {
            ASSERT_EQ(ref_in[k].priority(), in_arb[k].priority())
                << "round " << round << " input resource " << k;
            ASSERT_EQ(ref_out[k].priority(), out_arb[k].priority())
                << "round " << round << " output resource " << k;
        }
    }
    // Heavy contention: well under half the requests win.
    EXPECT_LT(granted * 2, offered);
}

TEST(SeparableAllocator, MatchesSortedReferenceUnderContention)
{
    // Nine ports onto two resources per router: every resource is
    // contended in both stages.
    expectMatchesReference(6, 9, 2, 0, 400, 1);
}

TEST(SeparableAllocator, MatchesReferenceAtAShardOffset)
{
    // A shard whose resources start mid-array (its allocator covers
    // [base, base + count) only), with a word-boundary-crossing
    // resource count.
    expectMatchesReference(13, 9, 5, 7, 300, 2);
}

TEST(SeparableAllocator, WrapsPointersAtTheUniverseEnd)
{
    // Two routers of three ports on one resource each: the pointers
    // cycle through the six-member universe many times over.
    expectMatchesReference(2, 3, 1, 0, 500, 3);
}

TEST(SeparableAllocator, EmptyRoundGrantsNothingAndKeepsPointers)
{
    std::vector<std::uint32_t> res = {0, 0};
    std::vector<RoundRobinArbiter> in_arb(1, RoundRobinArbiter(2));
    std::vector<RoundRobinArbiter> out_arb = in_arb;
    SeparableAllocator alloc;
    alloc.configure(0, 1);
    std::vector<SwitchRequest> reqs;
    alloc.allocate(reqs, res.data(), res.data(), in_arb.data(),
                   out_arb.data(), true);
    EXPECT_TRUE(reqs.empty());
    EXPECT_EQ(in_arb[0].priority(), 0u);
    reqs = {{1, 0}, {0, 1}};
    alloc.allocate(reqs, res.data(), res.data(), in_arb.data(),
                   out_arb.data(), true);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].in_port, 0u);
    EXPECT_EQ(in_arb[0].priority(), 1u);
    EXPECT_EQ(out_arb[0].priority(), 0u);   // Out port 1 won: wraps.
}

} // namespace
} // namespace turnmodel
