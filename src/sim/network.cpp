#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/report.hpp"
#include "util/logging.hpp"

namespace turnmodel {

Network::Network(const RoutingAlgorithm &routing,
                 const TrafficPattern &pattern, const SimConfig &config)
    : routing_(routing), decider_(&routing), topo_(routing.topology()),
      pattern_(pattern), config_(config),
      router_rng_(Rng::forStream(config.seed, 0xabcdef))
{
    TM_ASSERT(config_.buffer_depth >= 1, "buffers hold at least one flit");
    if (config_.compiled_routing &&
        dynamic_cast<const CompiledRoutingTable *>(&routing) == nullptr) {
        compiled_.emplace(routing);
        decider_ = &*compiled_;
    }
    if (config_.switching == Switching::StoreAndForward) {
        TM_ASSERT(config_.buffer_depth >= config_.lengths.maxLength(),
                  "store-and-forward buffers must fit a whole packet");
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
    is_active_.assign(total_ports, 0);
    head_waiting_.assign(total_ports, 0);
    waiting_pos_.assign(total_ports, 0);
    granted_.assign(total_ports, 0);
    granted_out_port_.assign(total_ports, 0);
    granted_target_.assign(total_ports, -1);
    maybe_free_.assign(total_ports, 0);
    bid_blocked_at_.assign(total_ports, 0);
    out_freed_at_.assign(topo_.numNodes(), 0);
    arb_move_into_.assign(total_ports, -1);

    port_router_.resize(total_ports);
    port_local_.resize(total_ports);
    for (std::uint32_t p = 0; p < total_ports; ++p) {
        port_router_[p] =
            p / static_cast<std::uint32_t>(ports_per_router_);
        port_local_[p] = static_cast<std::uint8_t>(
            p % static_cast<std::uint32_t>(ports_per_router_));
    }

    // Wire each output channel to the matching downstream input port:
    // a packet leaving router v in direction d arrives at neighbor w
    // on w's input port for direction d.
    for (NodeId v = 0; v < topo_.numNodes(); ++v) {
        for (Direction d : allDirections(topo_.numDims())) {
            const auto w = topo_.neighbor(v, d);
            if (!w)
                continue;
            out_to_in_[inPortId(v, d.id())] =
                static_cast<std::int32_t>(inPortId(*w, d.id()));
        }
    }

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

    // Output-selection policy: explicit name, or the adapter for the
    // classic enum. Built against the active route decider so the
    // lookahead table compiles from the same snapshot the hot loop
    // routes with. The congestion state is sized only on demand,
    // keeping the adapter path free of extra state.
    sel_ = makeSelectionPolicy(config_.selection_policy.empty()
                                   ? toString(config_.output_selection)
                                   : config_.selection_policy,
                               *decider_);
    const SelectionNeeds needs = sel_->needs();
    ordered_bid_scan_ = sel_->consumesGlobalRng();
    if (needs.free_slots)
        free_snap_.assign(total_ports, 0);

    // Shard plan. Serialization gates: a policy drawing from the
    // single router_rng_ stream does so in gather order, the packet
    // trace records events in global push order, and the injection
    // capture log records the global generation order — all serial
    // artifacts by definition, so they pin the engine to one shard
    // rather than weaken the determinism contract.
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
    shards_.resize(num_shards_);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
        Shard &sh = shards_[s];
        sh.node_begin = plan_.nodeBegin(s);
        sh.node_end = plan_.nodeEnd(s);
        sh.port_begin = plan_.portBegin(s);
        sh.port_end = plan_.portEnd(s);
        sh.move_memo.assign(total_ports, ~0ULL);
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

std::uint32_t
Network::inPortId(NodeId router, int local) const
{
    return router * static_cast<std::uint32_t>(ports_per_router_)
        + static_cast<std::uint32_t>(local);
}

void
Network::fifoPush(Shard &sh, std::uint32_t port, const Flit &flit)
{
    InPort &in = in_ports_[port];
    std::uint32_t idx = in.fifo_head + in.fifo_size;
    if (idx >= buffer_depth_)
        idx -= buffer_depth_;
    flit_slab_[port * buffer_depth_ + idx] = flit;
    ++in.fifo_size;
    // A header only ever enters an empty, unbound buffer (one packet
    // per buffer), so it is at the front and unrouted right now.
    if (flit.head) {
        head_waiting_[port] = 1;
        waiting_pos_[port] =
            static_cast<std::uint32_t>(sh.waiting_list.size());
        sh.waiting_list.push_back(port);
    }
}

Flit
Network::fifoPop(std::uint32_t port)
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
Network::markActive(Shard &sh, std::uint32_t port)
{
    if (!is_active_[port]) {
        is_active_[port] = 1;
        sh.active_ports.push_back(port);
    }
}

void
Network::stampProgress(PacketSlot slot)
{
    // Several shards may move flits of the same packet in one cycle;
    // every stamp writes the same value, so relaxed is enough.
    std::atomic_ref<std::uint64_t>(progress_[slot])
        .store(cycle_, std::memory_order_relaxed);
}

void
Network::step()
{
    if (team_)
        team_->run([this](unsigned rank) { stepShard(rank); });
    else
        stepShard(0);
    serialTail();
}

void
Network::stepShard(std::uint32_t s)
{
    Shard &sh = shards_[s];
    sh.moved = false;

    // Phase: sample arrivals (own RNG streams, staged locally). With
    // a closed loop, matured replies must be staged even while
    // stochastic generation is off (drain phases honor the
    // message-dependency chain).
    if (generate_ || closed_loop_) {
        generateSample(sh);
        sync();
        // Serial slot/id reservation so the commit below allocates
        // without touching shared state.
        if (s == 0)
            prepareGeneration();
        sync();
        commitGeneration(sh, s);
    }

    // Phase: output allocation. Router-local by construction — every
    // bid for an output channel comes from an input port of the same
    // router — so it shares a phase with the generation commit.
    allocateOutputs(sh, s);
    sync();

    // Phase: decide moves against the frozen cycle-start state. Reads
    // cross shard boundaries (chained-refill recursion); writes stay
    // in sh's scratch.
    decideMoves(sh);
    sync();

    if (!arb_key_.empty()) {
        // Serial mini-phase: one flit per physical wire per cycle.
        if (s == 0)
            arbitratePhysicalChannels();
        sync();
    }

    // Phase: pop commit. Writes shard-owned buffers and channel
    // state; boundary-crossing flits go to mailboxes.
    popMoves(sh, s);
    sync();

    // Phase: push commit. Owners apply local then mailboxed arrivals,
    // compact their active lists, and inject from their sources.
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

    // Phase: slot releases. Ejections during the push commit mail
    // foreign slots home, so the owners may only drain once every
    // shard's push commit is complete.
    drainReleases(s);
}

void
Network::generateSample(Shard &sh)
{
    sh.staged.clear();
    const double now = static_cast<double>(cycle_);
    for (NodeId v = sh.node_begin; v < sh.node_end; ++v) {
        // The flat due-time mirror keeps the every-cycle scan off
        // the (much larger) NodeSource records.
        if (arrival_due_[v] > now)
            continue;
        sources_[v].emit(cycle_, generate_, sh.staged);
        arrival_due_[v] = sources_[v].nextDue(generate_);
    }
}

void
Network::prepareGeneration()
{
    // Packet ids are assigned serially in node order — shard ranges
    // are contiguous and ascending, so handing each shard a base from
    // the prefix sum reproduces the serial id sequence exactly.
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
Network::commitGeneration(Shard &sh, std::uint32_t s)
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
Network::gatherBid(Shard &sh, std::uint32_t port)
{
    const InPort &in = in_ports_[port];
    const Flit &flit = fifoFront(port);
    TM_ASSERT(in.fifo_size > 0 && in.granted_out == -1 && flit.head,
              "head_waiting_ flag out of sync");
    const PacketState &pkt = packets_[flit.slot];
    // Store-and-forward: the header may not request an output
    // until every flit of the packet sits in this buffer.
    if (config_.switching == Switching::StoreAndForward &&
        in.fifo_size < pkt.length) {
        return;
    }
    const NodeId here = routerOf(port);
    const int local = localOf(port);

    std::uint32_t preferred;
    if (pkt.dest == here) {
        // Eject through the local delivery channel.
        const std::uint32_t eject = inPortId(here, localPort());
        if (out_ports_[eject].owner != kNoSlot) {
            bid_blocked_at_[port] = cycle_ + 1;
            return;
        }
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
        if (candidates.empty()) {
            bid_blocked_at_[port] = cycle_ + 1;
            return;
        }
        SelectionQuery q;
        q.candidates = candidates;
        q.in_dir = in_dir;
        q.here = here;
        q.dest = pkt.dest;
        q.packet = static_cast<std::uint64_t>(pkt.id);
        q.port_base = inPortId(here, 0);
        if (!free_snap_.empty()) {
            // The candidates' downstream buffers have not changed
            // since the cycle started: no flit moves before the
            // allocation phase.
            for (Direction d : candidates) {
                const std::uint32_t out = q.port_base + d.id();
                const std::int32_t down = out_to_in_[out];
                free_snap_[out] = static_cast<std::uint16_t>(
                    down >= 0 ? buffer_depth_ -
                            in_ports_[static_cast<std::uint32_t>(down)]
                                .fifo_size
                              : buffer_depth_);
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
Network::allocateOutputs(Shard &sh, std::uint32_t s)
{
    // Gather, per output port, the requests of unrouted header flits.
    // One allocation round per cycle: each header bids for the single
    // output its output-selection policy prefers among the free
    // candidates; the input-selection policy then picks one winner
    // per output. Every bid targets an output of the bidder's own
    // router, so the whole round is shard-local.
    // A header whose last attempt found every usable output busy is
    // skipped until an output channel at its router is released.
    const auto worthTrying = [this](std::uint32_t port) {
        return out_freed_at_[port_router_[port]] >=
            bid_blocked_at_[port];
    };
    sh.bids.clear();
    if (ordered_bid_scan_) {
        // Random output selection draws from router_rng_ per bid, so
        // the gather must walk ports in the canonical active order
        // (the Random policies force a single shard).
        for (std::uint32_t port : sh.active_ports) {
            if (head_waiting_[port] && worthTrying(port))
                gatherBid(sh, port);
        }
    } else {
        // Deterministic policies consume no randomness while
        // gathering, and bids are sorted before anything reads them,
        // so the compact waiting list's order is unobservable.
        for (std::uint32_t port : sh.waiting_list) {
            if (worthTrying(port))
                gatherBid(sh, port);
        }
    }

    // Group bids by output port and arbitrate. Sorting keeps the
    // pass deterministic whatever order the gather produced.
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
        head_waiting_[in_port] = 0;
        const std::uint32_t pos = waiting_pos_[in_port];
        const std::uint32_t last = sh.waiting_list.back();
        sh.waiting_list[pos] = last;
        waiting_pos_[last] = pos;
        sh.waiting_list.pop_back();
    }
}

bool
Network::headCanMoveCompute(Shard &sh, std::uint32_t port)
{
    // A dependency cycle (true deadlock among the flits trying to
    // move) resolves to "cannot move": a port found on the recursion
    // stack (state 1) reads as "no" through the inline memo check.
    // The memo is the exploring shard's own — the chain may wander
    // into other shards' (frozen) state, and the granted-target graph
    // is functional, so every shard computes the same answers.
    sh.move_memo[port] = (cycle_ << 2) | 1;

    bool result = false;
    const InPort &in = in_ports_[port];
    if (in.fifo_size > 0 && in.granted_out != -1) {
        const std::int32_t target = granted_target_[port];
        if (target < 0) {
            // Ejection: the destination consumes immediately.
            result = true;
        } else {
            const auto target_port = static_cast<std::uint32_t>(target);
            const InPort &next = in_ports_[target_port];
            const Flit &flit = fifoFront(port);
            if (next.fifo_size < buffer_depth_) {
                // Space available now. Buffers hold one packet at a
                // time, so a different packet may enter only an
                // empty, unbound buffer.
                result = next.cur_slot == kNoSlot
                    || next.cur_slot == flit.slot;
            } else if (headCanMove(sh, target_port)) {
                // The slot freed this cycle can be used, subject to
                // the same single-packet rule.
                result = next.cur_slot == flit.slot
                    || next.fifo_size == 1;
            }
        }
    }
    sh.move_memo[port] = (cycle_ << 2) | (result ? 2u : 3u);
    return result;
}

void
Network::decideMoves(Shard &sh)
{
    sh.moves.clear();
    for (std::uint32_t port : sh.active_ports) {
        // Ports without a grant can never move; one byte skips them
        // without touching their InPort record or the (always-false)
        // memo bookkeeping. A chained refill that needs an ungranted
        // port's answer still computes it inside its own recursion.
        if (!granted_[port])
            continue;
        if (!headCanMove(sh, port))
            continue;
        sh.moves.push_back({port, granted_target_[port],
                            granted_out_port_[port]});
    }
}

void
Network::arbitratePhysicalChannels()
{
    // Virtual channels multiplex one physical wire: at most one flit
    // per (router, physical direction) per cycle. Conflicts keep the
    // move whose turn it is under a rotating priority; cancelling a
    // move also cancels, transitively, any move that was counting on
    // the slot it would have vacated. Runs serially over the
    // concatenation of every shard's moves.
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
        // Members carry their from-port ahead of the move index, so
        // sorting puts each wire's contenders in canonical from-port
        // order — the rotating priority then picks the same winner
        // at every shard count.
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

    // Index moves by the buffer they enter, so cancellations can
    // chase the chain upstream. The flat index is reset after use,
    // so its cost is O(moves), not O(ports).
    for (const Move &m : all_moves_) {
        if (m.to >= 0)
            arb_move_into_[m.to] = static_cast<std::int32_t>(
                &m - all_moves_.data());
    }
    for (std::size_t head = 0; head < arb_worklist_.size(); ++head) {
        const std::uint32_t dead = arb_worklist_[head];
        // The move entering the buffer `dead` was leaving needed
        // its slot only if that buffer was full at cycle start.
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

    // Hand each shard back its surviving moves, order preserved.
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
Network::popMoves(Shard &sh, std::uint32_t s)
{
    // Pop all moving flits first so same-cycle chained refills see
    // consistent state, then push them downstream (next phase). Every
    // write here lands in sh's own routers: m.from and m.out are at
    // the same router, and an ejection's delivery port likewise.
    sh.in_flight.clear();
    for (const Move &m : sh.moves) {
        InPort &in = in_ports_[m.from];
        const Flit flit = fifoPop(m.from);
        if (chan_stats_)
            chan_stats_->recordForward(m.out, cycle_);
        if (congestion_.enabled())
            congestion_.noteForward(m.out, cycle_);
        if (flit.tail) {
            // The tail releases the channel and the buffer binding.
            out_ports_[m.out].owner = kNoSlot;
            if (held_.enabled())
                held_.release(s, m.out);
            in.cur_slot = kNoSlot;
            in.granted_out = -1;
            granted_[m.from] = 0;
            out_freed_at_[routerOf(m.from)] = cycle_ + 1;
            // Only a departing tail can leave a port empty and
            // unbound; remember the candidates so the active-list
            // compaction can skip everything else. (A chained
            // refill may still re-fill this port before then.)
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
Network::pushOne(Shard &sh, std::uint32_t s, const InFlight &f)
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
            // The slot goes home to its arena's free list; a foreign
            // slot travels by mailbox so only the owner touches it.
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
              "two packets interleaved in one buffer");
    fifoPush(sh, to, f.flit);
    if (chan_stats_)
        chan_stats_->recordOccupancy(to, next.fifo_size);
    if (f.flit.head) {
        PacketState &pkt = packets_[f.flit.slot];
        next.cur_slot = f.flit.slot;
        next.header_arrival = cycle_;
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
Network::pushMoves(Shard &sh, std::uint32_t s)
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
Network::compactActive(Shard &sh)
{
    // Compact the active list: keep ports that still hold flits or
    // are bound to a packet mid-stream. Every port was in one of
    // those states at cycle start, so only the tail-departure
    // candidates recorded in the pop phase can drop out; most cycles
    // the scan is a byte sweep (or nothing at all).
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
Network::injectFlits(Shard &sh)
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
Network::drainReleases(std::uint32_t s)
{
    if (num_shards_ > 1) {
        release_mail_.drainTo(
            s, [this](PacketSlot slot) { packets_.release(slot); });
    }
}

void
Network::recordHeldPorts(std::uint32_t s)
{
    if (!chan_stats_)
        return;
    // Busy/blocked accounting against this cycle's outcome: a held
    // channel either forwarded a flit this cycle or spent the cycle
    // blocked (downstream full or upstream bubble).
    for (std::uint32_t p : held_.ports(s))
        chan_stats_->recordHeld(p, cycle_);
}

void
Network::mergeCounters()
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
Network::serialTail()
{
    // Per-shard counters are cumulative, so the merge is a plain sum
    // every cycle (a shard's flits_in_network delta may be negative —
    // it can eject more than it injects — but unsigned addition is
    // modular, so the merged totals are exact).
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
    // The per-packet progress scan is amortized: a real deadlock
    // only has to be noticed, not noticed instantly.
    if ((cycle_ & 0x3ff) == 0) {
        packet_stall_flag_ = packet_stall_flag_
            || oldestPacketStall() >= config_.deadlock_threshold;
    }
    ++cycle_;
}

void
Network::setGenerationEnabled(bool enabled)
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
Network::post(NodeId src, NodeId dest, std::uint32_t length)
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

std::vector<Completion>
Network::drainCompletions()
{
    std::vector<Completion> out;
    out.swap(completions_);
    std::sort(out.begin(), out.end(),
              [](const Completion &a, const Completion &b) {
                  return a.id < b.id;
              });
    return out;
}

void
Network::drainCompletions(std::vector<Completion> &out)
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
Network::deadlockDetected() const
{
    return stall_cycles_ >= config_.deadlock_threshold
        || packet_stall_flag_;
}

std::vector<PacketId>
Network::stuckPackets(std::uint64_t age) const
{
    std::vector<PacketId> stuck;
    packets_.forEachLive([&](PacketSlot slot, const PacketState &pkt) {
        if (pkt.flits_injected == 0)
            return;
        if (cycle_ - progress_[slot] >= age)
            stuck.push_back(pkt.id);
    });
    // Slot order is allocation order, which recycling (and the arena
    // interleave) scrambles; report victims in ascending id order so
    // the list is stable against storage details.
    std::sort(stuck.begin(), stuck.end());
    return stuck;
}

std::uint64_t
Network::oldestPacketStall() const
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
Network::sourceQueuePackets() const
{
    std::uint64_t total = 0;
    for (const auto &q : source_queues_)
        total += q.size();
    return total;
}

void
Network::fillObsReport(ObsReport &report) const
{
    if (chan_stats_) {
        report.observed_cycles = chan_stats_->observedCycles();
        const double cycles =
            static_cast<double>(chan_stats_->observedCycles());
        const auto row_for = [&](NodeId v, std::uint32_t out,
                                 std::string dir,
                                 std::uint32_t peak) {
            ChannelUtilRow row;
            row.node = v;
            row.coords = topo_.coords(v);
            row.dir = std::move(dir);
            row.flits_forwarded = chan_stats_->flitsForwarded(out);
            row.busy_cycles = chan_stats_->busyCycles(out);
            row.blocked_cycles = chan_stats_->blockedCycles(out);
            row.peak_occupancy = peak;
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
                report.channels.push_back(row_for(
                    v, out, directionName(d),
                    chan_stats_->peakOccupancy(
                        static_cast<std::uint32_t>(down))));
            }
            // The local delivery channel: consumed immediately, so
            // it has no downstream buffer to peak-track.
            report.channels.push_back(
                row_for(v, inPortId(v, localPort()), "eject", 0));
        }
    }
    if (trace_sink_) {
        report.trace = trace_sink_->chronological();
        report.trace_dropped = trace_sink_->dropped();
    }
}

} // namespace turnmodel
