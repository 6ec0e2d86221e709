/**
 * @file
 * The flit-level wormhole network engine.
 *
 * Model (matching Glass & Ni, Section 6): every router has one input
 * buffer per incoming channel plus one for the local injection
 * channel; each buffer holds buffer_depth flits (one in the paper).
 * A channel moves at most one flit per cycle. A packet's header flit
 * requests an output channel from the routing algorithm; on a grant
 * the channel is held by that packet until its tail flit passes —
 * this channel holding while blocked is what makes wormhole routing
 * deadlock prone and the turn model relevant. Destination routers
 * consume flits immediately (one per cycle over the ejection
 * channel). Messages blocked from entering the network queue at the
 * source processor.
 *
 * Within one cycle, flit movement is evaluated against the
 * cycle-start state, with chained movement resolved so a full buffer
 * whose head departs this cycle can be refilled in the same cycle
 * (full streaming bandwidth through single-flit buffers). A cyclic
 * wait — true deadlock — is detected and reported by the stall
 * watchdog.
 *
 * Sharded stepping (SimConfig::sim_threads): the router array is
 * partitioned into contiguous shards (sim/shard.hpp), each owning
 * its routers' ports, buffers, source queues, and one packet arena.
 * Every cycle runs as barrier-separated phases on a persistent
 * WorkerTeam: arrival sampling; a serial slot/id reservation; VC-free
 * generation commit plus output allocation (router-local by
 * construction); move decision (reads any shard's cycle-start state,
 * each shard memoizing privately — the granted-target graph is
 * functional, so movability is order-independent); an optional
 * serial physical-wire arbitration; a pop commit (writes shard-owned
 * state, exporting boundary-crossing flits and slot releases to
 * mailboxes); and a push commit draining inbound mailboxes in
 * canonical sender order. Every observable is bit-identical at any
 * shard count; with one shard the same phase code runs inline on the
 * caller with no team and no barriers.
 *
 * Hot-loop storage discipline: steady-state step() performs zero
 * heap allocations. Packet state lives in a dense slot-recycling
 * pool (PacketPool) indexed by the slot each Flit carries; all input
 * buffers share one flat flit slab (per-port ring spans); source
 * queues are flat ring FIFOs; and every per-cycle working set
 * (bids, moves, in-flight flits, staged arrivals, mailboxes,
 * arbitration bookkeeping) is a persistent member cleared and
 * refilled in place each cycle. Containers grow only while a new
 * high-water mark is being set.
 */

#ifndef TURNMODEL_SIM_NETWORK_HPP
#define TURNMODEL_SIM_NETWORK_HPP

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/routing.hpp"
#include "core/routing/compiled.hpp"
#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/flat_queue.hpp"
#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "select/congestion.hpp"
#include "select/factory.hpp"
#include "sim/selection.hpp"
#include "sim/shard.hpp"
#include "traffic/pattern.hpp"
#include "traffic/source.hpp"
#include "traffic/workload.hpp"

namespace turnmodel {

struct ObsReport;

/** The simulated network: routers, buffers, channels, sources. */
class Network : public NetworkEngine
{
  public:
    /**
     * @param routing Routing algorithm (also supplies the topology);
     *                must outlive this object.
     * @param pattern Traffic pattern; must outlive this object.
     * @param config  Run configuration (copied).
     */
    Network(const RoutingAlgorithm &routing, const TrafficPattern &pattern,
            const SimConfig &config);

    /** Advance one flit cycle. */
    void step() override;

    /** Current cycle count. */
    std::uint64_t now() const override { return cycle_; }

    const NetworkCounters &counters() const override
    {
        return counters_;
    }

    /**
     * Completions recorded since the last drain, in ascending
     * PacketId order; the driver takes ownership and the internal
     * list is cleared.
     */
    std::vector<Completion> drainCompletions();

    /**
     * Allocation-free drain: clear @p out, swap it with the internal
     * completion list, and sort by packet id. A caller that drains
     * every cycle into the same buffer ping-pongs two allocations
     * forever instead of making one per cycle.
     */
    void drainCompletions(std::vector<Completion> &out) override;

    /**
     * Cycles since the last time any flit moved while packets were
     * in flight — the deadlock watchdog. Zero while traffic flows.
     */
    std::uint64_t stallCycles() const override { return stall_cycles_; }

    /** Whether the stall watchdog has tripped. */
    bool deadlockDetected() const override;

    /**
     * Packets that are in the network (at least one flit injected,
     * not yet delivered) and have made no progress for at least
     * @p age cycles, in ascending PacketId order. A non-empty result
     * at a large age indicates a (possibly partial) deadlock that
     * the global stall watchdog cannot see because unrelated traffic
     * still moves.
     */
    std::vector<PacketId> stuckPackets(std::uint64_t age)
        const override;

    /** Age in cycles of the longest-stalled in-network packet. */
    std::uint64_t oldestPacketStall() const override;

    /**
     * Turn stochastic message generation on or off (for drain
     * phases). Closed-loop replies keep flowing while generation is
     * off — a drain must honor the message-dependency chain — so the
     * per-node due-time cache is refreshed for the new mode.
     */
    void setGenerationEnabled(bool enabled) override;

    /**
     * Queue one packet directly at a source, bypassing the stochastic
     * generator — the hook for trace-driven workloads and for
     * controlled tests.
     *
     * @return The new packet's id.
     */
    PacketId post(NodeId src, NodeId dest,
                  std::uint32_t length) override;

    /** Total packets queued at all sources right now. */
    std::uint64_t sourceQueuePackets() const override;

    const Topology &topology() const override { return topo_; }

    /** The observer, or nullptr when observability is off. */
    const NetworkObserver *observer() const override
    {
        return obs_.get();
    }

    /**
     * Append what this network's observer collected — channel
     * heatmap rows (keyed by router coordinates and direction, with
     * "eject" rows for the delivery channels) and the packet event
     * trace — to @p report. No-op when observability is off.
     */
    void fillObsReport(ObsReport &report) const override;

    /** Shards step() executes across (after serialization gates). */
    unsigned shardCount() const override { return num_shards_; }

    /** In-flight packet pool capacity (soak memory high-water mark). */
    std::size_t packetPoolCapacity() const override
    {
        return packets_.capacity();
    }

  private:
    // ----- port indexing ---------------------------------------------
    /** Ports per router: 2n channel ports plus the local port. */
    int portsPerRouter() const { return ports_per_router_; }
    std::uint32_t inPortId(NodeId router, int local) const;
    NodeId routerOf(std::uint32_t port) const
    {
        return port_router_[port];
    }
    int localOf(std::uint32_t port) const { return port_local_[port]; }
    /** Local index of the injection (input) / ejection (output) port. */
    int localPort() const { return ports_per_router_ - 1; }

    /** One pending flit transfer this cycle. */
    struct Move
    {
        std::uint32_t from;
        std::int32_t to;   ///< Downstream input port; -1 for ejection.
        std::uint32_t out; ///< Output port crossed (decided once).
    };

    /** A header flit's request for one output channel this cycle. */
    struct Bid
    {
        std::uint32_t out_port;
        InputRequest request;
    };

    /** One flit popped from its buffer, awaiting delivery downstream. */
    struct InFlight
    {
        Flit flit;
        std::uint32_t from;
        std::int32_t to;
        std::uint32_t out;   ///< Output port the flit crossed.
    };

    /**
     * Everything one shard owns or scribbles on during a cycle. The
     * persistent lists (active, waiting) and the counters partition
     * the global state by owner; the rest is per-cycle scratch that
     * would be write-contended if shared. With one shard this is
     * simply the engine's former global working set.
     */
    struct Shard
    {
        NodeId node_begin = 0;
        NodeId node_end = 0;
        std::uint32_t port_begin = 0;
        std::uint32_t port_end = 0;

        /** Ports holding flits or bound to a packet (own ports). */
        std::vector<std::uint32_t> active_ports;
        /** Own head-waiting ports, compact (see waiting_pos_). */
        std::vector<std::uint32_t> waiting_list;
        /** Private movability memo over ALL ports: the decide phase
         * reads other shards' frozen state, so each shard memoizes
         * the closure it explores without sharing stamps. */
        std::vector<std::uint64_t> move_memo;

        // Per-cycle scratch.
        std::vector<Bid> bids;
        std::vector<InputRequest> bid_group;
        std::vector<Move> moves;
        std::vector<InFlight> in_flight;
        std::vector<SourcedPacket> staged;
        PacketId id_base = 0;

        /** Cumulative, owner-written; merged into the engine totals
         * in the serial tail. Fields may wrap individually (a shard
         * can eject more than it injects); unsigned modular addition
         * makes the merged sums exact. */
        NetworkCounters counters;
        std::vector<Completion> completions;
        std::uint32_t freed_candidates = 0;
        bool moved = false;
    };

    // ----- per-port flit rings (shared slab) -------------------------
    std::uint32_t fifoSize(std::uint32_t port) const
    {
        return in_ports_[port].fifo_size;
    }
    const Flit &fifoFront(std::uint32_t port) const
    {
        return flit_slab_[port * buffer_depth_
                          + in_ports_[port].fifo_head];
    }
    void fifoPush(Shard &sh, std::uint32_t port, const Flit &flit);
    Flit fifoPop(std::uint32_t port);

    // ----- cycle phases (see step()) ----------------------------------
    void stepShard(std::uint32_t s);
    /** Barrier between phases; no-op with one shard. */
    void sync()
    {
        if (team_)
            team_->barrier();
    }
    void generateSample(Shard &sh);
    /** Serial: packet-id bases, arena pre-growth, progress_ sizing. */
    void prepareGeneration();
    void commitGeneration(Shard &sh, std::uint32_t s);
    void allocateOutputs(Shard &sh, std::uint32_t s);
    /** Append @p port's output-channel request (if any) to sh.bids. */
    void gatherBid(Shard &sh, std::uint32_t port);
    void decideMoves(Shard &sh);
    void popMoves(Shard &sh, std::uint32_t s);
    void pushMoves(Shard &sh, std::uint32_t s);
    void pushOne(Shard &sh, std::uint32_t s, const InFlight &f);
    void injectFlits(Shard &sh);
    void compactActive(Shard &sh);
    void recordHeldPorts(std::uint32_t s);
    void drainReleases(std::uint32_t s);
    void serialTail();
    void mergeCounters();

    /**
     * Enforce one flit per physical channel per cycle when virtual
     * channels share wires, cancelling losing moves and any chained
     * refills that depended on them. Serial phase: operates on the
     * concatenation of every shard's moves, with group members in
     * canonical (wire, from-port) order so the rotating priority is
     * shard-count-invariant, then compacts each shard's list.
     */
    void arbitratePhysicalChannels();

    /** Movability of the head flit of @p port this cycle (memoized
     * privately per shard). The memo hit is the hot case — blocked
     * wormhole chains query the same ports over and over — so it
     * stays inline; the actual evaluation lives in
     * headCanMoveCompute(). */
    bool headCanMove(Shard &sh, std::uint32_t port)
    {
        const std::uint64_t memo = sh.move_memo[port];
        if ((memo >> 2) == cycle_)
            return (memo & 3) == 2;   // 1 (cyclic) and 3: no.
        return headCanMoveCompute(sh, port);
    }
    bool headCanMoveCompute(Shard &sh, std::uint32_t port);

    void markActive(Shard &sh, std::uint32_t port);

    /** Last-move stamp; relaxed atomic store because several shards
     * may stamp different flits of one packet in the same cycle (all
     * writing the same value). */
    void stampProgress(PacketSlot slot);

    // ----- state -------------------------------------------------------
    struct InPort
    {
        std::uint32_t fifo_head = 0;   ///< Offset in this port's span.
        std::uint32_t fifo_size = 0;
        PacketSlot cur_slot = kNoSlot; ///< Packet bound to the buffer.
        int granted_out = -1;   ///< Local output index at this router.
        std::uint64_t header_arrival = 0;
    };

    struct OutPort
    {
        PacketSlot owner = kNoSlot;
    };

    const RoutingAlgorithm &routing_;
    /** Compiled snapshot of routing_ (when config.compiled_routing
     * and routing_ is not already a table). */
    std::optional<CompiledRoutingTable> compiled_;
    /** The routing actually consulted in the hot loop: &*compiled_
     * when a snapshot was taken, otherwise &routing_. */
    const RoutingAlgorithm *decider_;
    const Topology &topo_;
    const TrafficPattern &pattern_;
    SimConfig config_;

    int ports_per_router_;
    std::uint32_t buffer_depth_;   ///< config_.buffer_depth, hoisted.
    std::vector<InPort> in_ports_;
    std::vector<OutPort> out_ports_;
    /** All input buffers, one ring span of buffer_depth_ per port. */
    std::vector<Flit> flit_slab_;
    /** Downstream input port of each output port; -1 for ejection. */
    std::vector<std::int32_t> out_to_in_;
    /** port -> router / local index (replaces div/mod in the loop). */
    std::vector<NodeId> port_router_;
    std::vector<std::uint8_t> port_local_;

    std::vector<FlatQueue<PacketSlot>> source_queues_;
    /** 1 when source_queues_[v] is non-empty: the injection scan
     * reads 1 byte per idle node instead of a FlatQueue record. */
    std::vector<std::uint8_t> source_pending_;
    std::vector<NodeSource> sources_;
    /** Flat mirror of each source's next due time, so the generation
     * scan touches 8 contiguous bytes per idle node. */
    std::vector<double> arrival_due_;
    Rng router_rng_;

    PacketPool packets_;
    PacketId next_packet_id_ = 0;
    /** Last cycle each live packet (by slot) moved any flit, kept
     * outside PacketState: it is written once per flit move, and a
     * dense 8-byte-per-slot array keeps that hot write-set an order
     * of magnitude smaller than the full packet records. */
    std::vector<std::uint64_t> progress_;

    /** active_ports membership, one byte per port (owner-written). */
    std::vector<std::uint8_t> is_active_;
    /** 1 while the port's front flit is an ungranted header — the
     * only ports the allocation scan must actually inspect. Set when
     * a head flit is buffered, cleared when its bid wins a grant. */
    std::vector<std::uint8_t> head_waiting_;
    /** Each head-waiting port's position in its owning shard's
     * waiting_list, for O(1) removal. The lists replace scanning
     * active ports whenever the output-selection policy is
     * deterministic: bids are sorted before use, so gather order is
     * only observable through RNG consumption. */
    std::vector<std::uint32_t> waiting_pos_;
    bool ordered_bid_scan_ = false;  ///< Rng policy: exact order.
    /** Output-selection policy consulted by every gatherBid. */
    SelectionPolicyPtr sel_;
    /** Cycle-start free slots of each output's downstream buffer,
     * filled for a bid's candidates (sized only when the policy
     * asks). */
    std::vector<std::uint16_t> free_snap_;
    /** Blocked-EWMA state behind the `regional` policy. */
    BlockedCongestion congestion_;
    /** Held output ports per shard (only with channel counters). */
    HeldPortLists held_;
    /** Cycle of the port's last bid attempt that found every usable
     * output channel busy (0 = none). Until an output at its router
     * is released the retry must fail the same way, so the gather
     * skips it: grants only shrink the candidate set, and a fruitless
     * attempt consumes no randomness under any policy. */
    std::vector<std::uint64_t> bid_blocked_at_;
    /** Cycle an output channel at this router was last released. */
    std::vector<std::uint64_t> out_freed_at_;
    /** granted_out != -1, as one byte per port: the move-decide scan
     * reads this instead of pulling in whole InPort records. */
    std::vector<std::uint8_t> granted_;
    /** While a port is granted: the global output-port id it holds
     * and that output's downstream input port (-1 for ejection).
     * A grant is immutable until the tail releases it, so caching
     * these at grant time spares every movability check and move
     * the router/local/id arithmetic. */
    std::vector<std::uint32_t> granted_out_port_;
    std::vector<std::int32_t> granted_target_;
    /** Ports whose buffer may have emptied this cycle (tail popped);
     * the only candidates the active-list compaction must inspect. */
    std::vector<std::uint8_t> maybe_free_;
    /** Physical-wire arbitration key of each non-local output port:
     * router * 256 + physical channel group (hoists the virtual
     * physicalChannelGroup() call out of the arbitration loop). */
    std::vector<std::uint64_t> arb_key_;

    // ----- sharding ----------------------------------------------------
    ShardPlan plan_;
    std::uint32_t num_shards_ = 1;
    std::vector<Shard> shards_;
    /** Gang team (null when num_shards_ == 1). */
    std::unique_ptr<WorkerTeam> team_;
    /** Boundary-crossing flit handoffs, drained in sender order. */
    ShardMailboxes<InFlight> flit_mail_;
    /** Delivered packets' slots going home to their arenas. */
    ShardMailboxes<PacketSlot> release_mail_;

    // ----- wire-arbitration scratch (serial phase; persistent) -------
    std::vector<Move> all_moves_;
    std::vector<std::size_t> arb_shard_base_;
    /** (wire key, (from port << 32) | move index): sorting forms the
     * per-wire groups with members in canonical from-port order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> arb_groups_;
    std::vector<std::uint8_t> arb_cancelled_;
    std::vector<std::uint32_t> arb_worklist_;
    /** Move index entering each input port this cycle, or -1; only
     * populated (and reset) when arbitration has to propagate. */
    std::vector<std::int32_t> arb_move_into_;

    std::uint64_t cycle_ = 0;
    bool generate_ = true;
    /** Hoisted workload knobs: closed loop active, reply length, and
     * delivery-to-reply-due offset (1 + think_cycles: a reply is
     * never due before the cycle after its request's delivery). */
    bool closed_loop_ = false;
    std::uint32_t reply_length_ = 0;
    std::uint64_t reply_delay_ = 1;
    bool moved_this_cycle_ = false;
    std::uint64_t stall_cycles_ = 0;
    bool packet_stall_flag_ = false;

    /** Merged view of the per-shard counters (serial tail). */
    NetworkCounters counters_;
    std::vector<Completion> completions_;

    /** Null when observability is off (the default). The raw
     * collector pointers are cached so the hot loop pays one branch,
     * not two indirections, per recording site. */
    std::unique_ptr<NetworkObserver> obs_;
    ChannelStats *chan_stats_ = nullptr;
    PacketTrace *trace_sink_ = nullptr;
    InjectionTrace *inj_log_ = nullptr;
};

} // namespace turnmodel

#endif // TURNMODEL_SIM_NETWORK_HPP
