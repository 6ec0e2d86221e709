/**
 * @file
 * Blocked-EWMA congestion state, the signal behind the `regional`
 * selection policy, kept by both engines through this one helper.
 *
 * Each output port carries a Q16 fixed-point EWMA (step 1/64) of
 * "held by a packet but forwarded nothing this cycle"; each router
 * carries the sum of its network outputs' EWMAs; an output's
 * regional score is its own EWMA plus its downstream router's sum.
 *
 * The state is incremental, so a cycle costs work in proportion to
 * the live ports, not the port count:
 * - Only live ports are decayed: held now, or EWMA above zero. A
 *   port that is neither updates as 0 += (0 - 0) >> 6, so skipping
 *   it is exact; the decay of a free port reaches zero in finite
 *   time (the arithmetic shift rounds toward minus infinity), and
 *   the port then leaves its shard's live list.
 * - Router sums move by the exact integer delta of each update.
 * - Regional scores are computed only for a bid's candidate outputs,
 *   when the policy is about to read them.
 *
 * Sharding: live lists are per shard; update() writes only the
 * shard's own ports and routers. scores() reads a downstream
 * router's sum that may belong to another shard, which is safe in
 * the allocation phase: no shard updates between the previous
 * cycle's push phase and the next one.
 */

#ifndef TURNMODEL_SELECT_CONGESTION_HPP
#define TURNMODEL_SELECT_CONGESTION_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/direction_set.hpp"
#include "topology/topology.hpp"

namespace turnmodel {

/** Blocked-EWMA bookkeeping shared by the two network engines. */
class BlockedCongestion
{
  public:
    /**
     * Size the state for @p num_nodes routers of @p ports_per_router
     * ports each (the last one the local port; port id is
     * router * ports_per_router + local). Shard s steps the ports
     * [shard_ports[s], shard_ports[s + 1]). @p out_to_in maps an
     * output port to its downstream input port, or -1.
     */
    void configure(NodeId num_nodes, int ports_per_router,
                   const std::vector<std::int32_t> &out_to_in,
                   const std::vector<std::uint32_t> &shard_ports);

    /** True once configured (the policy reads regional scores). */
    bool enabled() const { return !ports_.empty(); }

    /** Output @p port, in shard @p s, was just given to a packet. */
    void noteOwned(std::uint32_t s, std::uint32_t port)
    {
        if (!live_[port]) {
            live_[port] = 1;
            lanes_[s].live.push_back(port);
        }
    }

    /** Output @p port forwarded a flit in @p cycle. */
    void noteForward(std::uint32_t port, std::uint64_t cycle)
    {
        ports_[port].fwd_stamp = cycle;
    }

    /**
     * Fold cycle @p cycle 's outcome into shard @p s 's live ports:
     * a port that @p owned (port) reports held and that forwarded
     * nothing this cycle was blocked.
     */
    template <typename Owned>
    void update(std::uint32_t s, std::uint64_t cycle, Owned owned)
    {
        constexpr std::int32_t kOne = 1 << 16;
        constexpr int kShift = 6;
        std::vector<std::uint32_t> &live = lanes_[s].live;
        std::size_t keep = 0;
        for (std::uint32_t p : live) {
            PortState &ps = ports_[p];
            const bool held = owned(p);
            const bool blocked = held && ps.fwd_stamp != cycle;
            const std::int32_t old = ps.ewma;
            const std::int32_t now =
                old + (((blocked ? kOne : 0) - old) >> kShift);
            ps.ewma = now;
            if (ps.sum_router >= 0) {
                router_sum_[static_cast<std::uint32_t>(ps.sum_router)] +=
                    static_cast<std::uint32_t>(now - old);
            }
            if (held || now != 0)
                live[keep++] = p;
            else
                live_[p] = 0;
        }
        live.resize(keep);
    }

    /**
     * Regional scores of the candidate outputs of the router whose
     * direction-0 output is @p port_base, written into the returned
     * port-indexed array (other entries are stale).
     */
    const std::uint32_t *scores(std::uint32_t port_base,
                                DirectionSet candidates)
    {
        for (Direction d : candidates) {
            const std::uint32_t p =
                port_base + static_cast<std::uint32_t>(d.id());
            std::uint32_t r = static_cast<std::uint32_t>(ports_[p].ewma);
            if (down_router_[p] >= 0)
                r += router_sum_[static_cast<std::uint32_t>(
                    down_router_[p])];
            scores_[p] = r;
        }
        return scores_.data();
    }

    /** Q16 blocked EWMA of output @p port (tests and audits). */
    std::int32_t ewma(std::uint32_t port) const
    {
        return ports_[port].ewma;
    }

    /** Sum of router @p v 's network-output EWMAs. */
    std::uint32_t routerSum(NodeId v) const { return router_sum_[v]; }

    /** Ports on shard @p s 's live list. */
    std::size_t liveCount(std::uint32_t s) const
    {
        return lanes_[s].live.size();
    }

  private:
    /** One shard's live ports, padded against false sharing. */
    struct alignas(64) Lane
    {
        std::vector<std::uint32_t> live;
    };

    /** What update() reads and writes per port, kept together. */
    struct PortState
    {
        std::uint64_t fwd_stamp = ~0ULL;   ///< Last forwarding cycle.
        std::int32_t ewma = 0;
        /** Router whose sum counts the port; -1 for local ports. */
        std::int32_t sum_router = -1;
    };

    std::vector<PortState> ports_;
    std::vector<std::uint32_t> router_sum_;
    std::vector<std::uint32_t> scores_;
    /** Router the port's channel leads to; -1 if none. */
    std::vector<std::int32_t> down_router_;
    std::vector<std::uint8_t> live_;
    std::vector<Lane> lanes_;
};

} // namespace turnmodel

#endif // TURNMODEL_SELECT_CONGESTION_HPP
