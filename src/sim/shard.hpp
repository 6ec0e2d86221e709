/**
 * @file
 * Spatial sharding scaffolding shared by the two network engines.
 *
 * A ShardPlan partitions the router array into contiguous node
 * ranges; a shard owns the routers of its range, every port of those
 * routers, their source queues and arrival processes, and one packet
 * arena (sim/packet_pool.hpp) whose slots carry its index. The
 * two-phase stepping contract (sim/engine.hpp) lets any shard READ
 * any other shard's cycle-start state during a gather phase, while
 * every WRITE stays inside the owning shard; effects that must land
 * in foreign state — a flit crossing into a neighboring shard's
 * input buffer, a credit returning to an upstream output VC, a
 * delivered packet's slot going home to its arena — travel through
 * ShardMailboxes and are applied by the owner, in canonical
 * ascending-sender order, in the next commit phase.
 */

#ifndef TURNMODEL_SIM_SHARD_HPP
#define TURNMODEL_SIM_SHARD_HPP

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"
#include "util/logging.hpp"

namespace turnmodel {

/** Contiguous partition of the router array into shards. */
class ShardPlan
{
  public:
    /** Trivial plan: one shard owning everything. */
    ShardPlan() = default;

    /**
     * Split @p num_nodes routers (with @p ports_per_router ports
     * each) into @p shards contiguous ranges of near-equal size;
     * the first (num_nodes % shards) ranges hold one extra router.
     * @p shards is clamped to [1, num_nodes].
     */
    static ShardPlan build(NodeId num_nodes, int ports_per_router,
                           std::uint32_t shards)
    {
        TM_ASSERT(num_nodes > 0, "a network has at least one router");
        ShardPlan plan;
        if (shards < 1)
            shards = 1;
        if (shards > static_cast<std::uint32_t>(num_nodes))
            shards = static_cast<std::uint32_t>(num_nodes);
        plan.num_shards_ = shards;
        plan.ports_per_router_ = ports_per_router;
        plan.node_begin_.resize(shards + 1);
        const NodeId base = num_nodes / static_cast<NodeId>(shards);
        const NodeId extra = num_nodes % static_cast<NodeId>(shards);
        NodeId next = 0;
        for (std::uint32_t s = 0; s < shards; ++s) {
            plan.node_begin_[s] = next;
            next += base + (static_cast<NodeId>(s) < extra ? 1 : 0);
        }
        plan.node_begin_[shards] = num_nodes;
        plan.shard_of_node_.resize(
            static_cast<std::size_t>(num_nodes));
        for (std::uint32_t s = 0; s < shards; ++s) {
            for (NodeId v = plan.node_begin_[s];
                 v < plan.node_begin_[s + 1]; ++v) {
                plan.shard_of_node_[static_cast<std::size_t>(v)] =
                    static_cast<std::uint16_t>(s);
            }
        }
        return plan;
    }

    std::uint32_t numShards() const { return num_shards_; }

    NodeId nodeBegin(std::uint32_t shard) const
    {
        return node_begin_[shard];
    }
    NodeId nodeEnd(std::uint32_t shard) const
    {
        return node_begin_[shard + 1];
    }

    std::uint32_t portBegin(std::uint32_t shard) const
    {
        return static_cast<std::uint32_t>(node_begin_[shard]) *
            static_cast<std::uint32_t>(ports_per_router_);
    }
    std::uint32_t portEnd(std::uint32_t shard) const
    {
        return static_cast<std::uint32_t>(node_begin_[shard + 1]) *
            static_cast<std::uint32_t>(ports_per_router_);
    }

    /** portBegin() of every shard, then the total port count. */
    std::vector<std::uint32_t> portBounds() const
    {
        std::vector<std::uint32_t> bounds;
        for (std::uint32_t s = 0; s < num_shards_; ++s)
            bounds.push_back(portBegin(s));
        bounds.push_back(portEnd(num_shards_ - 1));
        return bounds;
    }

    std::uint32_t shardOfNode(NodeId node) const
    {
        return shard_of_node_[static_cast<std::size_t>(node)];
    }
    std::uint32_t shardOfPort(std::uint32_t port) const
    {
        return shard_of_node_[port /
            static_cast<std::uint32_t>(ports_per_router_)];
    }

  private:
    std::uint32_t num_shards_ = 1;
    int ports_per_router_ = 1;
    std::vector<NodeId> node_begin_{0};
    std::vector<std::uint16_t> shard_of_node_;
};

/**
 * A dense matrix of per-(sender, receiver) message queues. During a
 * commit phase, shard s appends to box(s, d) without synchronization
 * (each box has exactly one writer per phase); after the barrier the
 * receiver drains its column in ascending sender order — the
 * canonical order that makes the merged effect stream independent of
 * the shard count. Buffers are persistent: clear() keeps capacity,
 * so steady-state traffic allocates nothing.
 */
template <typename T>
class ShardMailboxes
{
  public:
    void configure(std::uint32_t shards)
    {
        num_shards_ = shards;
        boxes_.resize(static_cast<std::size_t>(shards) * shards);
    }

    std::vector<T> &box(std::uint32_t from, std::uint32_t to)
    {
        return boxes_[static_cast<std::size_t>(from) * num_shards_ +
                      to];
    }

    /**
     * Apply fn to every message addressed to @p to, senders in
     * ascending order, clearing the boxes as they drain.
     */
    template <typename Fn>
    void drainTo(std::uint32_t to, Fn &&fn)
    {
        for (std::uint32_t s = 0; s < num_shards_; ++s) {
            std::vector<T> &b = box(s, to);
            for (const T &msg : b)
                fn(msg);
            b.clear();
        }
    }

  private:
    std::uint32_t num_shards_ = 0;
    std::vector<std::vector<T>> boxes_;
};

/**
 * The output ports held by a packet, one list per shard, kept as
 * ownership changes so that per-cycle channel accounting visits the
 * held ports instead of every port. Each port is held and released by
 * the shard that owns it. Release swap-removes, so a list's order is
 * arbitrary: walk it only for order-free work such as per-port
 * counters.
 */
class HeldPortLists
{
  public:
    /** Empty lists for @p plan's shards, each reserved for all of
     * its ports so that holding never allocates. */
    void configure(const ShardPlan &plan)
    {
        const std::uint32_t shards = plan.numShards();
        lists_.resize(shards);
        for (std::uint32_t s = 0; s < shards; ++s)
            lists_[s].reserve(plan.portEnd(s) - plan.portBegin(s));
        pos_.assign(plan.portEnd(shards - 1), 0);
    }

    /** Whether configure() ran; hold and release only then. */
    bool enabled() const { return !lists_.empty(); }

    void hold(std::uint32_t s, std::uint32_t port)
    {
        pos_[port] = static_cast<std::uint32_t>(lists_[s].size());
        lists_[s].push_back(port);
    }

    void release(std::uint32_t s, std::uint32_t port)
    {
        std::vector<std::uint32_t> &list = lists_[s];
        const std::uint32_t at = pos_[port];
        list[at] = list.back();
        pos_[list[at]] = at;
        list.pop_back();
    }

    const std::vector<std::uint32_t> &ports(std::uint32_t s) const
    {
        return lists_[s];
    }

  private:
    std::vector<std::vector<std::uint32_t>> lists_;
    /** Index of each held port in its shard's list. */
    std::vector<std::uint32_t> pos_;
};

} // namespace turnmodel

#endif // TURNMODEL_SIM_SHARD_HPP
