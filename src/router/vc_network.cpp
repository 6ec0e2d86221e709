#include "router/vc_network.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/report.hpp"
#include "util/logging.hpp"

namespace turnmodel {

VcNetwork::VcNetwork(const RoutingAlgorithm &routing,
                     const TrafficPattern &pattern,
                     const SimConfig &config)
    : routing_(routing), decider_(&routing), topo_(routing.topology()),
      pattern_(pattern), config_(config),
      ideal_(config.vc_router.ideal_credits),
      pipelined_(config.vc_router.pipelined),
      credit_delay_(config.vc_router.credit_delay),
      sa_arbiter_(config.vc_router.arbiter),
      router_rng_(Rng::forStream(config.seed, 0xabcdef))
{
    TM_ASSERT(config_.buffer_depth >= 1, "buffers hold at least one flit");
    TM_ASSERT(config_.switching == Switching::Wormhole,
              "the VC router models wormhole switching only");
    TM_ASSERT(credit_delay_ >= 1,
              "credit return takes at least one cycle");
    if (config_.compiled_routing &&
        dynamic_cast<const CompiledRoutingTable *>(&routing) == nullptr) {
        compiled_.emplace(routing);
        decider_ = &*compiled_;
    }
    ports_per_router_ = topo_.numDirs() + 1;
    buffer_depth_ = config_.buffer_depth;
    const std::size_t total_ports =
        static_cast<std::size_t>(topo_.numNodes()) *
        static_cast<std::size_t>(ports_per_router_);
    in_ports_.resize(total_ports);
    out_ports_.resize(total_ports);
    flit_slab_.resize(total_ports * buffer_depth_);
    out_to_in_.assign(total_ports, -1);
    in_to_out_.assign(total_ports, -1);
    is_active_.assign(total_ports, 0);
    head_waiting_.assign(total_ports, 0);
    waiting_pos_.assign(total_ports, 0);
    granted_.assign(total_ports, 0);
    granted_out_port_.assign(total_ports, 0);
    granted_target_.assign(total_ports, -1);
    maybe_free_.assign(total_ports, 0);
    arb_move_into_.assign(total_ports, -1);
    va_ready_at_.assign(total_ports, 0);
    sa_ready_at_.assign(total_ports, 0);
    credits_.assign(total_ports,
                    static_cast<std::int64_t>(buffer_depth_));
    credit_stall_.assign(total_ports, 0);

    port_router_.resize(total_ports);
    port_local_.resize(total_ports);
    for (std::uint32_t p = 0; p < total_ports; ++p) {
        port_router_[p] =
            p / static_cast<std::uint32_t>(ports_per_router_);
        port_local_[p] = static_cast<std::uint8_t>(
            p % static_cast<std::uint32_t>(ports_per_router_));
    }

    // Wire each output VC to the matching downstream input VC, and
    // remember the inverse for credit returns: popping a flit from an
    // input buffer sends a credit to the upstream output VC.
    for (NodeId v = 0; v < topo_.numNodes(); ++v) {
        for (Direction d : allDirections(topo_.numDims())) {
            const auto w = topo_.neighbor(v, d);
            if (!w)
                continue;
            const std::uint32_t out = inPortId(v, d.id());
            const std::uint32_t in = inPortId(*w, d.id());
            out_to_in_[out] = static_cast<std::int32_t>(in);
            in_to_out_[in] = static_cast<std::int32_t>(out);
        }
    }

    // Crossbar resources: virtual channels of one physical wire share
    // one crossbar input (arriving side) and one output wire
    // (departing side); the local injection/ejection port is its own
    // resource. Identity mapping on plain topologies.
    const int num_dirs = topo_.numDirs();
    std::vector<std::uint32_t> wire_of_dir(
        static_cast<std::size_t>(num_dirs));
    std::uint32_t wires = 0;
    for (int d = 0; d < num_dirs; ++d) {
        wire_of_dir[static_cast<std::size_t>(d)] =
            topo_.physicalChannelGroup(static_cast<DirId>(d));
        wires = std::max(
            wires, wire_of_dir[static_cast<std::size_t>(d)] + 1u);
    }
    const std::uint32_t resources_per_router = wires + 1;
    in_group_.resize(total_ports);
    out_wire_.resize(total_ports);
    port_vc_.assign(total_ports, 0);
    for (std::uint32_t p = 0; p < total_ports; ++p) {
        const int local = localOf(p);
        const std::uint32_t res = local == localPort()
            ? wires
            : wire_of_dir[static_cast<std::size_t>(local)];
        const std::uint32_t id =
            routerOf(p) * resources_per_router + res;
        in_group_[p] = id;
        out_wire_[p] = id;
        if (local != localPort()) {
            std::uint8_t vc = 0;
            for (int d = 0; d < local; ++d) {
                if (wire_of_dir[static_cast<std::size_t>(d)] ==
                    wire_of_dir[static_cast<std::size_t>(local)])
                    ++vc;
            }
            port_vc_[p] = vc;
        }
    }
    const std::size_t num_resources =
        static_cast<std::size_t>(topo_.numNodes()) *
        static_cast<std::size_t>(resources_per_router);
    in_arb_.assign(num_resources, RoundRobinArbiter(
        static_cast<std::uint32_t>(total_ports)));
    out_arb_.assign(num_resources, RoundRobinArbiter(
        static_cast<std::uint32_t>(total_ports)));

    if (topo_.hasSharedPhysicalChannels()) {
        arb_key_.resize(total_ports);
        for (std::uint32_t p = 0; p < total_ports; ++p) {
            const int local = localOf(p);
            if (local == localPort())
                continue;   // Delivery channels are not multiplexed.
            arb_key_[p] =
                static_cast<std::uint64_t>(routerOf(p)) * 256u +
                topo_.physicalChannelGroup(static_cast<DirId>(local));
        }
    }

    if (config_.obs.networkEnabled()) {
        obs_ = std::make_unique<NetworkObserver>(config_.obs,
                                                 total_ports);
        chan_stats_ = obs_->channels();
        trace_sink_ = obs_->trace();
        inj_log_ = obs_->injections();
    }

    closed_loop_ = config_.workload.closedLoop();
    reply_length_ = config_.workload.reply_length;
    reply_delay_ = 1 + config_.workload.think_cycles;

    // Output-selection policy, built like the classic engine's
    // against the active route decider; congestion state is sized
    // only on demand.
    sel_ = makeSelectionPolicy(config_.selection_policy.empty()
                                   ? toString(config_.output_selection)
                                   : config_.selection_policy,
                               *decider_);
    const SelectionNeeds needs = sel_->needs();
    if (needs.free_slots) {
        free_snap_.assign(total_ports, 0);
        if (!ideal_)
            free_snap_at_.assign(total_ports, ~0ULL);
    }

    // Shard plan; gates identical to the classic engine (an
    // RNG-consuming policy, the packet trace, and the injection
    // capture log are serial artifacts).
    unsigned requested = config_.sim_threads != 0
        ? config_.sim_threads
        : std::thread::hardware_concurrency();
    if (requested == 0)
        requested = 1;
    if (sel_->consumesGlobalRng() ||
        config_.input_selection == InputSelection::Random) {
        requested = 1;
    }
    if (trace_sink_ || inj_log_)
        requested = 1;
    plan_ = ShardPlan::build(topo_.numNodes(), ports_per_router_,
                             requested);
    num_shards_ = plan_.numShards();
    packets_.configureArenas(num_shards_);
    flit_mail_.configure(num_shards_);
    release_mail_.configure(num_shards_);
    credit_mail_.configure(num_shards_);
    shards_.resize(num_shards_);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
        Shard &sh = shards_[s];
        sh.node_begin = plan_.nodeBegin(s);
        sh.node_end = plan_.nodeEnd(s);
        sh.port_begin = plan_.portBegin(s);
        sh.port_end = plan_.portEnd(s);
        sh.move_memo.assign(total_ports, ~0ULL);
        sh.credit_ring.resize(credit_delay_ + 1);
        if (!ideal_) {
            sh.allocator.configure(
                sh.node_begin * resources_per_router,
                (sh.node_end - sh.node_begin) * resources_per_router);
        }
    }
    if (num_shards_ > 1)
        team_ = std::make_unique<WorkerTeam>(num_shards_);
    if (needs.regional) {
        congestion_.configure(topo_.numNodes(), ports_per_router_,
                              out_to_in_, plan_.portBounds());
    }
    if (chan_stats_)
        held_.configure(plan_);

    source_queues_.resize(topo_.numNodes());
    source_pending_.assign(topo_.numNodes(), 0);
    sources_ = buildNodeSources(topo_.numNodes(),
                                config_.injection_rate,
                                config_.lengths, pattern_,
                                config_.workload, config_.seed);
    arrival_due_.reserve(topo_.numNodes());
    for (NodeId v = 0; v < topo_.numNodes(); ++v)
        arrival_due_.push_back(sources_[v].nextDue(generate_));
}

void
VcNetwork::fifoPush(Shard &sh, std::uint32_t port, const Flit &flit)
{
    InPort &in = in_ports_[port];
    std::uint32_t idx = in.fifo_head + in.fifo_size;
    if (idx >= buffer_depth_)
        idx -= buffer_depth_;
    flit_slab_[port * buffer_depth_ + idx] = flit;
    ++in.fifo_size;
    // A header only ever enters an empty, unbound VC buffer (one
    // packet per VC), so it is at the front and unrouted right now.
    if (flit.head) {
        head_waiting_[port] = 1;
        waiting_pos_[port] =
            static_cast<std::uint32_t>(sh.waiting_list.size());
        sh.waiting_list.push_back(port);
    }
}

Flit
VcNetwork::fifoPop(std::uint32_t port)
{
    InPort &in = in_ports_[port];
    const Flit flit = flit_slab_[port * buffer_depth_ + in.fifo_head];
    ++in.fifo_head;
    if (in.fifo_head >= buffer_depth_)
        in.fifo_head = 0;
    --in.fifo_size;
    return flit;
}

void
VcNetwork::markActive(Shard &sh, std::uint32_t port)
{
    if (!is_active_[port]) {
        is_active_[port] = 1;
        sh.active_ports.push_back(port);
    }
}

void
VcNetwork::stampProgress(PacketSlot slot)
{
    // Several shards may move flits of the same packet in one cycle;
    // every stamp writes the same value, so relaxed is enough.
    std::atomic_ref<std::uint64_t>(progress_[slot])
        .store(cycle_, std::memory_order_relaxed);
}

void
VcNetwork::step()
{
    if (team_)
        team_->run([this](unsigned rank) { stepShard(rank); });
    else
        stepShard(0);
    serialTail();
}

void
VcNetwork::stepShard(std::uint32_t s)
{
    Shard &sh = shards_[s];
    sh.moved = false;

    // Phase: sample arrivals, then the serial slot/id reservation.
    // With a closed loop, matured replies must be staged even while
    // stochastic generation is off (drain phases honor the
    // message-dependency chain).
    if (generate_ || closed_loop_) {
        generateSample(sh);
        sync();
        if (s == 0)
            prepareGeneration();
        sync();
    }

    // Phase: apply own credit returns, commit staged arrivals, and
    // run VC allocation. All three touch only shard-owned state (a
    // VA bid always targets an output VC of the bidder's router).
    if (!ideal_)
        applyCreditReturns(sh, s);
    if (generate_ || closed_loop_)
        commitGeneration(sh, s);
    allocateVcs(sh, s);
    sync();

    // Phase: decide moves against the frozen cycle-start state.
    sh.moves.clear();
    if (ideal_)
        decideMovesIdeal(sh);
    else
        decideMovesCredit(sh);
    sync();

    if (ideal_ && !arb_key_.empty()) {
        // Serial mini-phase: one flit per physical wire per cycle
        // (credit mode routes wire contention through the separable
        // switch allocator instead).
        if (s == 0)
            arbitratePhysicalChannels();
        sync();
    }

    // Phase: pop commit (credits consumed and returned here).
    popMoves(sh, s);
    sync();

    // Phase: push commit.
    pushMoves(sh, s);
    compactActive(sh);
    injectFlits(sh);
    recordHeldPorts(s);
    if (congestion_.enabled()) {
        congestion_.update(s, cycle_, [this](std::uint32_t p) {
            return out_ports_[p].owner != kNoSlot;
        });
    }
    sync();

    // Phase: mailboxed slot releases and upstream credits go home.
    drainMailboxes(s);
}

void
VcNetwork::generateSample(Shard &sh)
{
    sh.staged.clear();
    const double now = static_cast<double>(cycle_);
    for (NodeId v = sh.node_begin; v < sh.node_end; ++v) {
        if (arrival_due_[v] > now)
            continue;
        sources_[v].emit(cycle_, generate_, sh.staged);
        arrival_due_[v] = sources_[v].nextDue(generate_);
    }
}

void
VcNetwork::prepareGeneration()
{
    // Serial prefix sum over contiguous ascending shard ranges
    // reproduces the serial node-order id sequence exactly.
    PacketId base = next_packet_id_;
    for (Shard &sh : shards_) {
        sh.id_base = base;
        base += static_cast<PacketId>(sh.staged.size());
    }
    next_packet_id_ = base;
    for (std::uint32_t s = 0; s < num_shards_; ++s)
        packets_.reserveExtra(s, shards_[s].staged.size());
    if (packets_.capacity() > progress_.size())
        progress_.resize(packets_.capacity());
}

void
VcNetwork::commitGeneration(Shard &sh, std::uint32_t s)
{
    const double now = static_cast<double>(cycle_);
    PacketId id = sh.id_base;
    for (const SourcedPacket &sp : sh.staged) {
        const PacketSlot slot = packets_.allocate(s);
        PacketState &pkt = packets_[slot];
        pkt.id = id++;
        pkt.src = sp.src;
        pkt.dest = sp.dest;
        pkt.length = sp.length;
        pkt.created = now;
        pkt.reply = sp.reply;
        source_queues_[sp.src].push_back(slot);
        source_pending_[sp.src] = 1;
        ++sh.counters.packets_generated;
        sh.counters.flits_generated += sp.length;
        sh.counters.source_queue_flits += sp.length;
        if (inj_log_)
            inj_log_->append({cycle_, sp.src, sp.dest, sp.length});
    }
}

void
VcNetwork::applyCreditReturns(Shard &sh, std::uint32_t s)
{
    auto &bucket = sh.credit_ring[cycle_ % sh.credit_ring.size()];
    for (const CreditEvent &e : bucket) {
        // The policy reads cycle-start free slots: keep the value
        // this return is about to change.
        if (!free_snap_.empty() && free_snap_at_[e.out_port] != cycle_) {
            free_snap_[e.out_port] = freeSlots(e.out_port);
            free_snap_at_[e.out_port] = cycle_;
        }
        ++credits_[e.out_port];
        TM_ASSERT(credits_[e.out_port] <=
                      static_cast<std::int64_t>(buffer_depth_),
                  "credit counter above downstream buffer depth");
        // The tail flit's credit doubles as the VC-free signal: the
        // output VC returns to the allocatable pool only once the
        // downstream buffer holds none of the departing packet.
        if (e.vc_free)
            releaseOutput(s, e.out_port);
    }
    bucket.clear();
}

void
VcNetwork::scheduleCredit(std::uint32_t s, std::uint32_t out_port,
                          bool vc_free)
{
    const CreditEvent e{out_port,
                        static_cast<std::uint8_t>(vc_free)};
    const std::uint32_t owner = plan_.shardOfPort(out_port);
    if (owner == s) {
        Shard &sh = shards_[s];
        sh.credit_ring[(cycle_ + credit_delay_) %
                       sh.credit_ring.size()]
            .push_back(e);
    } else {
        credit_mail_.box(s, owner).push_back(e);
    }
}

void
VcNetwork::gatherBid(Shard &sh, std::uint32_t port)
{
    const InPort &in = in_ports_[port];
    const Flit &flit = fifoFront(port);
    TM_ASSERT(in.fifo_size > 0 && in.granted_out == -1 && flit.head,
              "head_waiting_ flag out of sync");
    const PacketState &pkt = packets_[flit.slot];
    const NodeId here = routerOf(port);
    const int local = localOf(port);

    std::uint32_t preferred;
    if (pkt.dest == here) {
        // Eject through the local delivery channel.
        const std::uint32_t eject = inPortId(here, localPort());
        if (out_ports_[eject].owner != kNoSlot)
            return;
        preferred = eject;
    } else {
        const std::optional<Direction> in_dir =
            local == localPort()
                ? std::nullopt
                : std::make_optional(
                      Direction::fromId(static_cast<DirId>(local)));
        DirectionSet candidates;
        for (Direction d : decider_->routeSet(here, in_dir,
                                              pkt.dest)) {
            const std::uint32_t out = inPortId(here, d.id());
            if (out_ports_[out].owner == kNoSlot)
                candidates.insert(d);
        }
        if (candidates.empty())
            return;
        SelectionQuery q;
        q.candidates = candidates;
        q.in_dir = in_dir;
        q.here = here;
        q.dest = pkt.dest;
        q.packet = static_cast<std::uint64_t>(pkt.id);
        q.port_base = inPortId(here, 0);
        if (!free_snap_.empty()) {
            // Cycle-start free slots of the candidates: the live
            // value unless a credit return changed it this cycle.
            for (Direction d : candidates) {
                const std::uint32_t out = q.port_base + d.id();
                if (ideal_ || free_snap_at_[out] != cycle_)
                    free_snap_[out] = freeSlots(out);
            }
            q.free_slots = free_snap_.data();
        }
        if (congestion_.enabled())
            q.congestion = congestion_.scores(q.port_base, candidates);
        q.rng = &router_rng_;
        preferred = inPortId(here, sel_->pick(q).id());
    }
    sh.bids.push_back({preferred, {port, in.header_arrival}});
}

void
VcNetwork::allocateVcs(Shard &sh, std::uint32_t s)
{
    // VC allocation: every route-computed header bids for the single
    // free output VC its output-selection policy prefers; the
    // input-selection policy picks one winner per output VC. Bids are
    // sorted before use, so the compact waiting list's order is
    // unobservable under deterministic policies (Random policies
    // consume router_rng_ in list order, which forces one shard).
    sh.bids.clear();
    for (std::uint32_t port : sh.waiting_list) {
        if (cycle_ >= va_ready_at_[port])
            gatherBid(sh, port);
    }

    std::sort(sh.bids.begin(), sh.bids.end(),
              [](const Bid &a, const Bid &b) {
                  if (a.out_port != b.out_port)
                      return a.out_port < b.out_port;
                  return a.request.in_port < b.request.in_port;
              });
    std::size_t i = 0;
    while (i < sh.bids.size()) {
        sh.bid_group.clear();
        const std::uint32_t out = sh.bids[i].out_port;
        while (i < sh.bids.size() && sh.bids[i].out_port == out)
            sh.bid_group.push_back(sh.bids[i++].request);
        const std::size_t win =
            selectInput(config_.input_selection, sh.bid_group,
                        router_rng_);
        const std::uint32_t in_port = sh.bid_group[win].in_port;
        InPort &in = in_ports_[in_port];
        out_ports_[out].owner = fifoFront(in_port).slot;
        if (held_.enabled())
            held_.hold(s, out);
        if (congestion_.enabled())
            congestion_.noteOwned(s, out);
        in.granted_out = localOf(out);
        granted_[in_port] = 1;
        granted_out_port_[in_port] = out;
        granted_target_[in_port] = out_to_in_[out];
        // Charge the VA stage: the winner may compete in switch
        // allocation from the next cycle when pipelined, immediately
        // (classic timing) otherwise.
        sa_ready_at_[in_port] = cycle_ + (pipelined_ ? 1 : 0);
        head_waiting_[in_port] = 0;
        const std::uint32_t pos = waiting_pos_[in_port];
        const std::uint32_t last = sh.waiting_list.back();
        sh.waiting_list[pos] = last;
        waiting_pos_[last] = pos;
        sh.waiting_list.pop_back();
    }
}

bool
VcNetwork::headCanMoveCompute(Shard &sh, std::uint32_t port)
{
    // Ideal-credit movability, replicated from the classic engine so
    // the degenerate configuration is semantics-identical: instant
    // occupancy checks with same-cycle chained refills, and a
    // dependency cycle resolving to "cannot move" through the
    // on-stack memo state. The memo is the exploring shard's own.
    sh.move_memo[port] = (cycle_ << 2) | 1;

    bool result = false;
    const InPort &in = in_ports_[port];
    if (in.fifo_size > 0 && in.granted_out != -1 &&
        cycle_ >= sa_ready_at_[port]) {
        const std::int32_t target = granted_target_[port];
        if (target < 0) {
            // Ejection: the destination consumes immediately.
            result = true;
        } else {
            const auto target_port = static_cast<std::uint32_t>(target);
            const InPort &next = in_ports_[target_port];
            const Flit &flit = fifoFront(port);
            if (next.fifo_size < buffer_depth_) {
                result = next.cur_slot == kNoSlot
                    || next.cur_slot == flit.slot;
            } else if (headCanMove(sh, target_port)) {
                result = next.cur_slot == flit.slot
                    || next.fifo_size == 1;
            }
        }
    }
    sh.move_memo[port] = (cycle_ << 2) | (result ? 2u : 3u);
    return result;
}

void
VcNetwork::decideMovesIdeal(Shard &sh)
{
    for (std::uint32_t port : sh.active_ports) {
        if (!granted_[port])
            continue;
        if (!headCanMove(sh, port))
            continue;
        sh.moves.push_back({port, granted_target_[port],
                            granted_out_port_[port]});
    }
}

void
VcNetwork::decideMovesCredit(Shard &sh)
{
    // Gather switch-allocation requests: granted VCs with a buffered
    // flit, past their VA pipeline stage, holding a credit (ejection
    // needs none — the destination consumes immediately). A flit-ready
    // VC without a credit charges the credit-stall counter, the
    // backpressure signal the per-VC observability exports. The whole
    // allocation is router-local: crossbar resources, arbiters, and
    // credit counters all belong to the input port's router.
    sh.sa_reqs.clear();
    for (std::uint32_t port : sh.active_ports) {
        if (!granted_[port])
            continue;
        const InPort &in = in_ports_[port];
        if (in.fifo_size == 0)
            continue;
        if (cycle_ < sa_ready_at_[port])
            continue;
        const std::uint32_t out = granted_out_port_[port];
        if (granted_target_[port] >= 0 && credits_[out] <= 0) {
            ++credit_stall_[out];
            continue;
        }
        sh.sa_reqs.push_back({port, out});
    }

    // Separable two-stage allocation; a request must win its
    // resource's round-robin arbiter in both stages. Requests are
    // unique per input VC (one granted output each) and per output
    // VC (one owner each), so a stage winner is unambiguous.
    sh.allocator.allocate(sh.sa_reqs, in_group_.data(),
                          out_wire_.data(), in_arb_.data(),
                          out_arb_.data(),
                          sa_arbiter_ == SwitchArbiter::InputFirst);
    for (const SwitchRequest &r : sh.sa_reqs) {
        sh.moves.push_back({r.in_port, granted_target_[r.in_port],
                            r.out_port});
    }
}

void
VcNetwork::arbitratePhysicalChannels()
{
    // Ideal-credit mode on shared wires: the classic engine's
    // rotating-priority wire arbitration with transitive cancellation
    // of dependent chained refills, run serially over the
    // concatenation of every shard's moves with group members in
    // canonical (wire, from-port) order. (Credit mode routes wire
    // contention through the separable switch allocator instead.)
    all_moves_.clear();
    arb_shard_base_.clear();
    for (Shard &sh : shards_) {
        arb_shard_base_.push_back(all_moves_.size());
        all_moves_.insert(all_moves_.end(), sh.moves.begin(),
                          sh.moves.end());
    }
    arb_shard_base_.push_back(all_moves_.size());

    arb_groups_.clear();
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(all_moves_.size()); ++i) {
        if (all_moves_[i].to < 0)
            continue;   // Delivery channels are not multiplexed.
        arb_groups_.emplace_back(
            arb_key_[all_moves_[i].out],
            (static_cast<std::uint64_t>(all_moves_[i].from) << 32) |
                i);
    }
    std::sort(arb_groups_.begin(), arb_groups_.end());

    arb_cancelled_.assign(all_moves_.size(), 0);
    arb_worklist_.clear();
    std::size_t i = 0;
    while (i < arb_groups_.size()) {
        std::size_t j = i;
        while (j < arb_groups_.size() &&
               arb_groups_[j].first == arb_groups_[i].first) {
            ++j;
        }
        const std::size_t members = j - i;
        if (members > 1) {
            const std::size_t keep =
                static_cast<std::size_t>(cycle_ % members);
            for (std::size_t k = 0; k < members; ++k) {
                if (k == keep)
                    continue;
                const auto idx = static_cast<std::uint32_t>(
                    arb_groups_[i + k].second & 0xffffffffu);
                arb_cancelled_[idx] = 1;
                arb_worklist_.push_back(idx);
            }
        }
        i = j;
    }

    if (arb_worklist_.empty())
        return;

    for (const Move &m : all_moves_) {
        if (m.to >= 0)
            arb_move_into_[m.to] = static_cast<std::int32_t>(
                &m - all_moves_.data());
    }
    for (std::size_t head = 0; head < arb_worklist_.size(); ++head) {
        const std::uint32_t dead = arb_worklist_[head];
        const std::uint32_t buffer = all_moves_[dead].from;
        if (in_ports_[buffer].fifo_size < buffer_depth_)
            continue;   // The incoming move still has room.
        const std::int32_t feeder = arb_move_into_[buffer];
        if (feeder < 0 || arb_cancelled_[feeder])
            continue;
        arb_cancelled_[feeder] = 1;
        arb_worklist_.push_back(static_cast<std::uint32_t>(feeder));
    }
    for (const Move &m : all_moves_) {
        if (m.to >= 0)
            arb_move_into_[m.to] = -1;
    }

    for (std::uint32_t s = 0; s < num_shards_; ++s) {
        Shard &sh = shards_[s];
        sh.moves.clear();
        for (std::size_t m = arb_shard_base_[s];
             m < arb_shard_base_[s + 1]; ++m) {
            if (!arb_cancelled_[m])
                sh.moves.push_back(all_moves_[m]);
        }
    }
}

void
VcNetwork::popMoves(Shard &sh, std::uint32_t s)
{
    // Pop all moving flits first so same-cycle chained refills (ideal
    // mode) see consistent state, then push them downstream (next
    // phase). Credits are consumed here (m.out is at m.from's router)
    // and returned upstream — by mailbox when the upstream output VC
    // lives in another shard.
    sh.in_flight.clear();
    for (const Move &m : sh.moves) {
        InPort &in = in_ports_[m.from];
        const Flit flit = fifoPop(m.from);
        if (chan_stats_)
            chan_stats_->recordForward(m.out, cycle_);
        if (congestion_.enabled())
            congestion_.noteForward(m.out, cycle_);
        if (!ideal_) {
            if (m.to >= 0) {
                TM_ASSERT(credits_[m.out] > 0,
                          "flit sent without a credit");
                --credits_[m.out];
            }
            // This pop freed one slot of m.from's buffer: return a
            // credit to the upstream output VC feeding it (none for
            // the injection port — its upstream is the source queue).
            const std::int32_t up = in_to_out_[m.from];
            if (up >= 0)
                scheduleCredit(s, static_cast<std::uint32_t>(up),
                               flit.tail);
        }
        if (flit.tail) {
            // The tail releases the buffer binding; the output VC is
            // released now under ideal credits (and for ejection,
            // which has no downstream buffer), otherwise by the
            // downstream tail pop's VC-free signal.
            if (ideal_ || m.to < 0)
                releaseOutput(s, m.out);
            in.cur_slot = kNoSlot;
            in.granted_out = -1;
            granted_[m.from] = 0;
            if (in.fifo_size == 0 && !maybe_free_[m.from]) {
                maybe_free_[m.from] = 1;
                ++sh.freed_candidates;
            }
        }
        if (m.to >= 0) {
            const std::uint32_t owner =
                plan_.shardOfPort(static_cast<std::uint32_t>(m.to));
            if (owner != s) {
                flit_mail_.box(s, owner).push_back(
                    {flit, m.from, m.to, m.out});
                continue;
            }
        }
        sh.in_flight.push_back({flit, m.from, m.to, m.out});
    }
}

void
VcNetwork::pushOne(Shard &sh, std::uint32_t s, const InFlight &f)
{
    sh.moved = true;
    ++sh.counters.flit_moves;
    stampProgress(f.flit.slot);
    if (f.to < 0) {
        // Consumed at the destination.
        PacketState &pkt = packets_[f.flit.slot];
        ++pkt.flits_delivered;
        ++sh.counters.flits_delivered;
        --sh.counters.flits_in_network;
        if (f.flit.tail) {
            ++sh.counters.packets_delivered;
            if (trace_sink_)
                trace_sink_->record({cycle_, pkt.id, pkt.dest, 0,
                                     TraceEventKind::Deliver});
            sh.completions.push_back({pkt.id, pkt.src, pkt.dest,
                                      pkt.length, pkt.hops, pkt.created,
                                      pkt.injected,
                                      static_cast<double>(cycle_)});
            // Closed loop: a delivered request schedules its reply at
            // the destination node. Shard-safe without a mailbox —
            // ejections are never mailboxed, so pkt.dest's source
            // belongs to this shard, and one ejection channel per
            // node means at most one reply per node per cycle.
            if (closed_loop_ && !pkt.reply) {
                sources_[pkt.dest].scheduleReply(
                    cycle_ + reply_delay_, pkt.src, reply_length_);
                arrival_due_[pkt.dest] =
                    sources_[pkt.dest].nextDue(generate_);
            }
            const std::uint32_t arena = packets_.arenaOf(f.flit.slot);
            if (arena == s)
                packets_.release(f.flit.slot);
            else
                release_mail_.box(s, arena).push_back(f.flit.slot);
        }
        return;
    }
    const auto to = static_cast<std::uint32_t>(f.to);
    InPort &next = in_ports_[to];
    TM_ASSERT(next.fifo_size < buffer_depth_,
              "flit pushed into a full buffer");
    TM_ASSERT(next.cur_slot == kNoSlot ||
                  next.cur_slot == f.flit.slot,
              "two packets interleaved in one VC buffer");
    fifoPush(sh, to, f.flit);
    if (chan_stats_)
        chan_stats_->recordOccupancy(to, next.fifo_size);
    if (f.flit.head) {
        PacketState &pkt = packets_[f.flit.slot];
        next.cur_slot = f.flit.slot;
        next.header_arrival = cycle_;
        // Charge the route-compute stage: the header may bid in VA
        // the cycle after arrival (classic timing), one later when
        // pipelined.
        va_ready_at_[to] = cycle_ + 1 + (pipelined_ ? 1 : 0);
        ++pkt.hops;
        ++sh.counters.header_hops;
        if (trace_sink_)
            trace_sink_->record({cycle_, pkt.id, routerOf(f.from),
                                 static_cast<DirId>(localOf(to)),
                                 TraceEventKind::Route});
    }
    markActive(sh, to);
}

void
VcNetwork::pushMoves(Shard &sh, std::uint32_t s)
{
    for (const InFlight &f : sh.in_flight)
        pushOne(sh, s, f);
    sh.in_flight.clear();
    if (num_shards_ > 1) {
        flit_mail_.drainTo(
            s, [&](const InFlight &f) { pushOne(sh, s, f); });
    }
}

void
VcNetwork::compactActive(Shard &sh)
{
    // Compact the active list (identical to the classic engine).
    if (sh.freed_candidates == 0)
        return;
    sh.freed_candidates = 0;
    std::size_t keep = 0;
    for (std::uint32_t port : sh.active_ports) {
        if (!maybe_free_[port]) {
            sh.active_ports[keep++] = port;
            continue;
        }
        maybe_free_[port] = 0;
        const InPort &in = in_ports_[port];
        if (in.fifo_size > 0 || in.cur_slot != kNoSlot) {
            sh.active_ports[keep++] = port;
        } else {
            is_active_[port] = 0;
        }
    }
    sh.active_ports.resize(keep);
}

void
VcNetwork::injectFlits(Shard &sh)
{
    // Runs after traversal so a single-flit injection buffer sustains
    // one flit per cycle, the injection channel's full bandwidth.
    for (NodeId v = sh.node_begin; v < sh.node_end; ++v) {
        if (!source_pending_[v])
            continue;
        auto &queue = source_queues_[v];
        const std::uint32_t port = inPortId(v, localPort());
        InPort &in = in_ports_[port];
        if (in.fifo_size >= buffer_depth_)
            continue;
        const PacketSlot slot = queue.front();
        PacketState &pkt = packets_[slot];
        if (in.cur_slot != kNoSlot && in.cur_slot != slot)
            continue;   // Previous packet's tail still in the buffer.
        Flit flit;
        flit.slot = slot;
        flit.head = pkt.flits_injected == 0;
        flit.tail = pkt.flits_injected + 1 == pkt.length;
        fifoPush(sh, port, flit);
        ++pkt.flits_injected;
        stampProgress(slot);
        --sh.counters.source_queue_flits;
        ++sh.counters.flits_in_network;
        ++sh.counters.flit_moves;
        sh.moved = true;
        if (flit.head) {
            in.cur_slot = slot;
            in.header_arrival = cycle_;
            va_ready_at_[port] = cycle_ + 1 + (pipelined_ ? 1 : 0);
            pkt.injected = static_cast<double>(cycle_);
            if (trace_sink_)
                trace_sink_->record({cycle_, pkt.id, v, 0,
                                     TraceEventKind::Inject});
        }
        if (flit.tail) {
            queue.pop_front();
            if (queue.empty())
                source_pending_[v] = 0;
        }
        markActive(sh, port);
    }
}

void
VcNetwork::releaseOutput(std::uint32_t s, std::uint32_t out)
{
    out_ports_[out].owner = kNoSlot;
    if (held_.enabled())
        held_.release(s, out);
}

void
VcNetwork::recordHeldPorts(std::uint32_t s)
{
    if (!chan_stats_)
        return;
    for (std::uint32_t p : held_.ports(s))
        chan_stats_->recordHeld(p, cycle_);
}

std::uint16_t
VcNetwork::freeSlots(std::uint32_t out) const
{
    // Credits under real flow control; ideal mode reads the
    // downstream buffer directly, like the classic engine. Ejection
    // never waits.
    const std::int32_t down = out_to_in_[out];
    std::int64_t free = static_cast<std::int64_t>(buffer_depth_);
    if (down >= 0) {
        free = ideal_
            ? static_cast<std::int64_t>(buffer_depth_) -
                in_ports_[static_cast<std::uint32_t>(down)].fifo_size
            : credits_[out];
    }
    return static_cast<std::uint16_t>(free < 0 ? 0 : free);
}

void
VcNetwork::drainMailboxes(std::uint32_t s)
{
    if (num_shards_ == 1)
        return;
    release_mail_.drainTo(
        s, [this](PacketSlot slot) { packets_.release(slot); });
    // Mailboxed credits were scheduled this cycle, so they file into
    // the same landing bucket the owner's local schedules used.
    Shard &sh = shards_[s];
    auto &bucket = sh.credit_ring[(cycle_ + credit_delay_) %
                                  sh.credit_ring.size()];
    credit_mail_.drainTo(
        s, [&](const CreditEvent &e) { bucket.push_back(e); });
}

void
VcNetwork::mergeCounters()
{
    NetworkCounters total;
    for (const Shard &sh : shards_) {
        const NetworkCounters &c = sh.counters;
        total.packets_generated += c.packets_generated;
        total.packets_delivered += c.packets_delivered;
        total.flits_generated += c.flits_generated;
        total.flits_delivered += c.flits_delivered;
        total.header_hops += c.header_hops;
        total.source_queue_flits += c.source_queue_flits;
        total.flits_in_network += c.flits_in_network;
        total.flit_moves += c.flit_moves;
    }
    counters_ = total;
}

void
VcNetwork::serialTail()
{
    mergeCounters();
    moved_this_cycle_ = false;
    for (Shard &sh : shards_) {
        if (sh.moved)
            moved_this_cycle_ = true;
        if (!sh.completions.empty()) {
            completions_.insert(completions_.end(),
                                sh.completions.begin(),
                                sh.completions.end());
            sh.completions.clear();
        }
    }

    if (chan_stats_)
        chan_stats_->tick();

    // Deadlock watchdog: packets in the network but nothing moved.
    if (!moved_this_cycle_ && counters_.flits_in_network > 0)
        ++stall_cycles_;
    else
        stall_cycles_ = 0;
    if ((cycle_ & 0x3ff) == 0) {
        packet_stall_flag_ = packet_stall_flag_
            || oldestPacketStall() >= config_.deadlock_threshold;
    }
    ++cycle_;
}

void
VcNetwork::setGenerationEnabled(bool enabled)
{
    if (generate_ == enabled)
        return;
    generate_ = enabled;
    // The due-time cache answers "when can this source emit?", which
    // depends on the mode: with generation off only pending replies
    // count, and turning it back on must re-expose the arrival clock.
    for (NodeId v = 0; v < topo_.numNodes(); ++v)
        arrival_due_[v] = sources_[v].nextDue(generate_);
}

PacketId
VcNetwork::post(NodeId src, NodeId dest, std::uint32_t length)
{
    TM_ASSERT(src < topo_.numNodes() && dest < topo_.numNodes(),
              "post() endpoints out of range");
    TM_ASSERT(src != dest, "post() requires distinct endpoints");
    TM_ASSERT(length >= 1, "a packet has at least one flit");
    const std::uint32_t s = plan_.shardOfNode(src);
    const PacketSlot slot = packets_.allocate(s);
    if (slot >= progress_.size())
        progress_.resize(slot + 1);
    PacketState &pkt = packets_[slot];
    pkt.id = next_packet_id_++;
    pkt.src = src;
    pkt.dest = dest;
    pkt.length = length;
    pkt.created = static_cast<double>(cycle_);
    progress_[slot] = cycle_;
    source_queues_[src].push_back(slot);
    source_pending_[src] = 1;
    NetworkCounters &c = shards_[s].counters;
    ++c.packets_generated;
    c.flits_generated += length;
    c.source_queue_flits += length;
    if (inj_log_)
        inj_log_->append({cycle_, src, dest, length});
    mergeCounters();   // Keep the merged view current between steps.
    return pkt.id;
}

void
VcNetwork::drainCompletions(std::vector<Completion> &out)
{
    out.clear();
    out.swap(completions_);
    // Completions are recorded in delivery-scan order, which depends
    // on the shard layout; ascending id order is the canonical,
    // shard-count-invariant presentation.
    std::sort(out.begin(), out.end(),
              [](const Completion &a, const Completion &b) {
                  return a.id < b.id;
              });
}

bool
VcNetwork::deadlockDetected() const
{
    return stall_cycles_ >= config_.deadlock_threshold
        || packet_stall_flag_;
}

std::vector<PacketId>
VcNetwork::stuckPackets(std::uint64_t age) const
{
    std::vector<PacketId> stuck;
    packets_.forEachLive([&](PacketSlot slot, const PacketState &pkt) {
        if (pkt.flits_injected == 0)
            return;
        if (cycle_ - progress_[slot] >= age)
            stuck.push_back(pkt.id);
    });
    std::sort(stuck.begin(), stuck.end());
    return stuck;
}

std::uint64_t
VcNetwork::oldestPacketStall() const
{
    std::uint64_t oldest = 0;
    packets_.forEachLive([&](PacketSlot slot, const PacketState &pkt) {
        if (pkt.flits_injected == 0)
            return;
        oldest = std::max(oldest, cycle_ - progress_[slot]);
    });
    return oldest;
}

std::uint64_t
VcNetwork::sourceQueuePackets() const
{
    std::uint64_t total = 0;
    for (const auto &q : source_queues_)
        total += q.size();
    return total;
}

bool
VcNetwork::auditCredits() const
{
    if (ideal_)
        return true;
    std::vector<std::int64_t> pending(credits_.size(), 0);
    for (const Shard &sh : shards_) {
        for (const auto &bucket : sh.credit_ring) {
            for (const CreditEvent &e : bucket)
                ++pending[e.out_port];
        }
    }
    for (std::uint32_t out = 0;
         out < static_cast<std::uint32_t>(credits_.size()); ++out) {
        const std::int32_t down = out_to_in_[out];
        if (down < 0)
            continue;   // Ejection: no credit loop.
        if (credits_[out] < 0)
            return false;
        const std::int64_t round_trip = credits_[out] + pending[out]
            + in_ports_[static_cast<std::uint32_t>(down)].fifo_size;
        if (round_trip != static_cast<std::int64_t>(buffer_depth_))
            return false;
    }
    return true;
}

std::uint64_t
VcNetwork::creditStallCycles() const
{
    std::uint64_t total = 0;
    for (std::uint64_t s : credit_stall_)
        total += s;
    return total;
}

void
VcNetwork::fillObsReport(ObsReport &report) const
{
    report.schema_version = 2;
    if (chan_stats_) {
        report.observed_cycles = chan_stats_->observedCycles();
        const double cycles =
            static_cast<double>(chan_stats_->observedCycles());
        const auto row_for = [&](NodeId v, std::uint32_t out,
                                 std::string dir, int vc,
                                 std::uint32_t peak) {
            ChannelUtilRow row;
            row.node = v;
            row.coords = topo_.coords(v);
            row.dir = std::move(dir);
            row.vc = vc;
            row.flits_forwarded = chan_stats_->flitsForwarded(out);
            row.busy_cycles = chan_stats_->busyCycles(out);
            row.blocked_cycles = chan_stats_->blockedCycles(out);
            row.peak_occupancy = peak;
            row.credit_stall_cycles = credit_stall_[out];
            row.utilization = cycles > 0.0
                ? static_cast<double>(row.flits_forwarded) / cycles
                : 0.0;
            return row;
        };
        for (NodeId v = 0; v < topo_.numNodes(); ++v) {
            for (Direction d : allDirections(topo_.numDims())) {
                if (!topo_.neighbor(v, d))
                    continue;
                const std::uint32_t out = inPortId(v, d.id());
                const std::int32_t down = out_to_in_[out];
                // Rows are keyed by the physical direction plus the
                // VC index, so heatmaps of virtualized meshes stay in
                // the physical vocabulary.
                const Direction phys = Direction::fromId(
                    topo_.physicalChannelGroup(d.id()));
                report.channels.push_back(row_for(
                    v, out, directionName(phys), port_vc_[out],
                    chan_stats_->peakOccupancy(
                        static_cast<std::uint32_t>(down))));
            }
            report.channels.push_back(row_for(
                v, inPortId(v, localPort()), "eject", -1, 0));
        }
    }
    if (trace_sink_) {
        report.trace = trace_sink_->chronological();
        report.trace_dropped = trace_sink_->dropped();
    }
}

} // namespace turnmodel
