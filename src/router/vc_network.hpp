/**
 * @file
 * Credit-based virtual-channel router network — the repo's second
 * cycle-accurate engine (see sim/engine.hpp for the interface and
 * sim/network.hpp for the classic single-buffer engine it is
 * differentially tested against).
 *
 * Microarchitecture (the canonical RC/VA/SA/LT organization of
 * Garnet-style VC routers): every input port of a router is one
 * virtual-channel state machine with a private multi-flit buffer.
 * A buffered header is route-computed (RC), then bids in VC
 * allocation (VA) for a free output VC chosen by the configured
 * output-selection policy, with the input-selection policy breaking
 * ties per output VC. A granted VC then competes each cycle in
 * switch allocation (SA) — a separable two-stage allocator over the
 * router's crossbar: one flit per physical input port and one flit
 * per physical output wire per cycle, each stage arbitrated by a
 * deterministic round-robin arbiter (router/arbiter.hpp), in
 * input-first or output-first order per SwitchArbiter. Winners
 * traverse the link (LT) the same cycle.
 *
 * Flow control is credit based: each output VC holds a credit
 * counter initialized to the downstream buffer depth; sending a flit
 * consumes a credit, and popping a flit from the downstream buffer
 * returns one after vc_router.credit_delay cycles. The credit
 * carrying a tail flit's pop doubles as the VC-free signal that
 * returns the output VC to the allocatable pool — exactly one packet
 * occupies a VC buffer at a time. With vc_router.ideal_credits the
 * engine instead replicates the classic engine's instantaneous
 * occupancy checks and same-cycle chained refills; combined with
 * pipelined=false, one VC and deterministic selection policies, the
 * two engines produce identical results (the degenerate differential
 * test pins this).
 *
 * Virtual channels come from the topology: on a VirtualizedMesh each
 * virtual direction is one VC of its physical wire, which is how the
 * escape-VC routing algorithm (core/routing/escape_vc.hpp) sees and
 * restricts individual VCs. On a plain mesh the engine degenerates
 * to one VC per wire.
 *
 * Sharded stepping (SimConfig::sim_threads) mirrors the classic
 * engine: contiguous router shards, barrier-separated gather/commit
 * phases on a persistent WorkerTeam, cross-shard flit handoffs and
 * packet-slot releases by mailbox. Two engine-specific pieces join
 * them: VA and SA are router-local by construction, so they need no
 * cross-shard traffic at all, and each shard owns the credit-return
 * ring of its routers' output VCs — a pop whose upstream output VC
 * lives in another shard mails the credit to that shard, which files
 * it into its own ring for the same landing cycle. Every observable
 * is bit-identical at any shard count.
 */

#ifndef TURNMODEL_ROUTER_VC_NETWORK_HPP
#define TURNMODEL_ROUTER_VC_NETWORK_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/routing.hpp"
#include "core/routing/compiled.hpp"
#include "exec/thread_pool.hpp"
#include "obs/observer.hpp"
#include "router/arbiter.hpp"
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

/** The simulated VC-router network. */
class VcNetwork : public NetworkEngine
{
  public:
    /**
     * @param routing Routing algorithm (also supplies the topology);
     *                must outlive this object.
     * @param pattern Traffic pattern; must outlive this object.
     * @param config  Run configuration (copied); wormhole only.
     */
    VcNetwork(const RoutingAlgorithm &routing,
              const TrafficPattern &pattern, const SimConfig &config);

    // ----- NetworkEngine ---------------------------------------------
    void step() override;
    std::uint64_t now() const override { return cycle_; }
    const NetworkCounters &counters() const override
    {
        return counters_;
    }
    void drainCompletions(std::vector<Completion> &out) override;
    std::uint64_t stallCycles() const override { return stall_cycles_; }
    bool deadlockDetected() const override;
    std::vector<PacketId> stuckPackets(std::uint64_t age)
        const override;
    std::uint64_t oldestPacketStall() const override;
    /** See Network::setGenerationEnabled: replies keep flowing while
     * stochastic generation is off, so the due cache is refreshed. */
    void setGenerationEnabled(bool enabled) override;
    PacketId post(NodeId src, NodeId dest,
                  std::uint32_t length) override;
    std::uint64_t sourceQueuePackets() const override;
    const Topology &topology() const override { return topo_; }
    const NetworkObserver *observer() const override
    {
        return obs_.get();
    }
    void fillObsReport(ObsReport &report) const override;
    unsigned shardCount() const override { return num_shards_; }

    /** In-flight packet pool capacity (soak memory high-water mark). */
    std::size_t packetPoolCapacity() const override
    {
        return packets_.capacity();
    }

    // ----- credit introspection (tests and audits) -------------------
    /** Credits the output VC leaving @p router in @p dir holds now. */
    std::int64_t credits(NodeId router, Direction dir) const
    {
        return credits_[inPortId(router, dir.id())];
    }

    /**
     * Credit conservation: for every network channel, held credits
     * plus credits in flight on the return link plus downstream
     * buffer occupancy must equal the buffer depth. Trivially true
     * under ideal_credits.
     */
    bool auditCredits() const;

    /** Total cycles any flit-ready VC spent waiting on credits. */
    std::uint64_t creditStallCycles() const;

    /** Global port id of (router, local index) — for tests. */
    std::uint32_t portId(NodeId router, int local) const
    {
        return inPortId(router, local);
    }

    /** Ports per router: 2n channel ports plus the local port. */
    int portsPerRouter() const { return ports_per_router_; }

  private:
    std::uint32_t inPortId(NodeId router, int local) const
    {
        return router * static_cast<std::uint32_t>(ports_per_router_)
            + static_cast<std::uint32_t>(local);
    }
    NodeId routerOf(std::uint32_t port) const
    {
        return port_router_[port];
    }
    int localOf(std::uint32_t port) const { return port_local_[port]; }
    int localPort() const { return ports_per_router_ - 1; }

    /** One pending flit transfer this cycle. */
    struct Move
    {
        std::uint32_t from;
        std::int32_t to;   ///< Downstream input port; -1 for ejection.
        std::uint32_t out; ///< Output port crossed.
    };

    /** A header flit's VA request for one output VC this cycle. */
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
        std::uint32_t out;
    };

    /** A credit (and possibly VC-free signal) in flight upstream. */
    struct CreditEvent
    {
        std::uint32_t out_port;
        std::uint8_t vc_free;
    };

    /** One shard's owned lists, counters, credit ring, and per-cycle
     * scratch (see sim/network.hpp — this mirrors the classic
     * engine's Shard, plus the credit-return ring). */
    struct Shard
    {
        NodeId node_begin = 0;
        NodeId node_end = 0;
        std::uint32_t port_begin = 0;
        std::uint32_t port_end = 0;

        std::vector<std::uint32_t> active_ports;
        std::vector<std::uint32_t> waiting_list;
        std::vector<std::uint64_t> move_memo;
        /** Credit-return pipeline for this shard's output VCs: bucket
         * (cycle % (delay+1)) holds the events that land at the start
         * of that cycle. */
        std::vector<std::vector<CreditEvent>> credit_ring;

        // Per-cycle scratch.
        std::vector<Bid> bids;
        std::vector<InputRequest> bid_group;
        std::vector<Move> moves;
        std::vector<InFlight> in_flight;
        /** Switch-allocation requests, then this cycle's grants. */
        std::vector<SwitchRequest> sa_reqs;
        /** Separable allocator over this shard's crossbar resources
         * (credit mode). */
        SeparableAllocator allocator;
        std::vector<SourcedPacket> staged;
        PacketId id_base = 0;

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
    void sync()
    {
        if (team_)
            team_->barrier();
    }
    void generateSample(Shard &sh);
    void prepareGeneration();   // Serial.
    void commitGeneration(Shard &sh, std::uint32_t s);
    void applyCreditReturns(Shard &sh, std::uint32_t s);
    void allocateVcs(Shard &sh, std::uint32_t s);
    void gatherBid(Shard &sh, std::uint32_t port);
    /** Classic-engine movability semantics (ideal_credits). */
    void decideMovesIdeal(Shard &sh);
    /** Credit-gated separable switch allocation (router-local). */
    void decideMovesCredit(Shard &sh);
    void arbitratePhysicalChannels();   // Serial (ideal mode).
    void popMoves(Shard &sh, std::uint32_t s);
    void pushMoves(Shard &sh, std::uint32_t s);
    void pushOne(Shard &sh, std::uint32_t s, const InFlight &f);
    void injectFlits(Shard &sh);
    void compactActive(Shard &sh);
    /** Free output VC @p out of shard @p s for allocation. */
    void releaseOutput(std::uint32_t s, std::uint32_t out);
    void recordHeldPorts(std::uint32_t s);
    void drainMailboxes(std::uint32_t s);
    /** Free downstream slots of output @p out right now. */
    std::uint16_t freeSlots(std::uint32_t out) const;
    void serialTail();
    void mergeCounters();
    /** File a credit for @p out_port to land credit_delay_ cycles
     * from now — into shard @p s's own ring when it owns the port,
     * else into the owner's mailbox. */
    void scheduleCredit(std::uint32_t s, std::uint32_t out_port,
                        bool vc_free);

    bool headCanMove(Shard &sh, std::uint32_t port)
    {
        const std::uint64_t memo = sh.move_memo[port];
        if ((memo >> 2) == cycle_)
            return (memo & 3) == 2;
        return headCanMoveCompute(sh, port);
    }
    bool headCanMoveCompute(Shard &sh, std::uint32_t port);

    void markActive(Shard &sh, std::uint32_t port);
    void stampProgress(PacketSlot slot);

    // ----- state -------------------------------------------------------
    struct InPort
    {
        std::uint32_t fifo_head = 0;
        std::uint32_t fifo_size = 0;
        PacketSlot cur_slot = kNoSlot; ///< Packet bound to the VC.
        int granted_out = -1;   ///< Local output index at this router.
        std::uint64_t header_arrival = 0;
    };

    struct OutPort
    {
        PacketSlot owner = kNoSlot;
    };

    const RoutingAlgorithm &routing_;
    std::optional<CompiledRoutingTable> compiled_;
    const RoutingAlgorithm *decider_;
    const Topology &topo_;
    const TrafficPattern &pattern_;
    SimConfig config_;

    // Hoisted VcRouterConfig knobs.
    bool ideal_;
    bool pipelined_;
    std::uint32_t credit_delay_;
    SwitchArbiter sa_arbiter_;

    int ports_per_router_;
    std::uint32_t buffer_depth_;
    std::vector<InPort> in_ports_;
    std::vector<OutPort> out_ports_;
    std::vector<Flit> flit_slab_;
    /** Downstream input port of each output port; -1 for ejection. */
    std::vector<std::int32_t> out_to_in_;
    /** Upstream output port feeding each input port; -1 for the
     * injection port (its upstream is the source queue). */
    std::vector<std::int32_t> in_to_out_;
    std::vector<NodeId> port_router_;
    std::vector<std::uint8_t> port_local_;
    /** VC index of each port's channel within its physical wire. */
    std::vector<std::uint8_t> port_vc_;

    // ----- VA pipeline timing ----------------------------------------
    /** Earliest cycle the buffered header may bid in VA (charges the
     * RC stage when pipelined). */
    std::vector<std::uint64_t> va_ready_at_;
    /** Earliest cycle the granted packet may win SA (charges the VA
     * stage when pipelined). */
    std::vector<std::uint64_t> sa_ready_at_;

    // ----- credit flow control ---------------------------------------
    /** Free downstream buffer slots per output VC. */
    std::vector<std::int64_t> credits_;
    /** Cycles each output VC's queued flits waited on credits. */
    std::vector<std::uint64_t> credit_stall_;

    // ----- separable switch allocator --------------------------------
    /** Dense crossbar resource ids per port: the physical input port
     * feeding it / the physical output wire it drives. */
    std::vector<std::uint32_t> in_group_;
    std::vector<std::uint32_t> out_wire_;
    std::vector<RoundRobinArbiter> in_arb_;
    std::vector<RoundRobinArbiter> out_arb_;

    std::vector<FlatQueue<PacketSlot>> source_queues_;
    std::vector<std::uint8_t> source_pending_;
    std::vector<NodeSource> sources_;
    std::vector<double> arrival_due_;
    Rng router_rng_;

    // ----- output-selection policy -----------------------------------
    /** Policy consulted by gatherBid (RC/VA stage). */
    SelectionPolicyPtr sel_;
    /** Cycle-start credits (free downstream slots) per output VC,
     * filled for a bid's candidates (sized only when the policy
     * asks). */
    std::vector<std::uint16_t> free_snap_;
    /** Cycle in which free_snap_ took the port's cycle-start value
     * ahead of a credit return (credit mode). */
    std::vector<std::uint64_t> free_snap_at_;
    /** Blocked-EWMA state behind the `regional` policy. */
    BlockedCongestion congestion_;
    /** Held output VCs per shard (only with channel counters). */
    HeldPortLists held_;

    PacketPool packets_;
    PacketId next_packet_id_ = 0;
    std::vector<std::uint64_t> progress_;

    std::vector<std::uint8_t> is_active_;
    std::vector<std::uint8_t> head_waiting_;
    std::vector<std::uint32_t> waiting_pos_;
    std::vector<std::uint8_t> granted_;
    std::vector<std::uint32_t> granted_out_port_;
    std::vector<std::int32_t> granted_target_;
    std::vector<std::uint8_t> maybe_free_;
    /** Physical-wire arbitration key (ideal mode, shared wires). */
    std::vector<std::uint64_t> arb_key_;

    // ----- sharding ----------------------------------------------------
    ShardPlan plan_;
    std::uint32_t num_shards_ = 1;
    std::vector<Shard> shards_;
    std::unique_ptr<WorkerTeam> team_;
    ShardMailboxes<InFlight> flit_mail_;
    ShardMailboxes<PacketSlot> release_mail_;
    /** Credits crossing shard boundaries on their way upstream. */
    ShardMailboxes<CreditEvent> credit_mail_;

    // ----- wire-arbitration scratch (serial phase; persistent) -------
    std::vector<Move> all_moves_;
    std::vector<std::size_t> arb_shard_base_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> arb_groups_;
    std::vector<std::uint8_t> arb_cancelled_;
    std::vector<std::uint32_t> arb_worklist_;
    std::vector<std::int32_t> arb_move_into_;

    std::uint64_t cycle_ = 0;
    bool generate_ = true;
    /** Hoisted workload knobs (see sim/network.hpp). */
    bool closed_loop_ = false;
    std::uint32_t reply_length_ = 0;
    std::uint64_t reply_delay_ = 1;
    bool moved_this_cycle_ = false;
    std::uint64_t stall_cycles_ = 0;
    bool packet_stall_flag_ = false;

    NetworkCounters counters_;
    std::vector<Completion> completions_;

    std::unique_ptr<NetworkObserver> obs_;
    ChannelStats *chan_stats_ = nullptr;
    PacketTrace *trace_sink_ = nullptr;
    InjectionTrace *inj_log_ = nullptr;
};

} // namespace turnmodel

#endif // TURNMODEL_ROUTER_VC_NETWORK_HPP
