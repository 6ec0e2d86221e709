/**
 * @file
 * Compiled routing tables: snapshot any RoutingAlgorithm into a flat
 * array of DirectionSet entries, so every later decision is a single
 * load after a little index arithmetic.
 *
 * Motivation: a routing function is consulted millions of times by
 * the simulator hot loop, the channel-dependency builder, the
 * adaptiveness counters, and the synthesis verifier, but over a tiny
 * finite domain — numNodes x (numDirs + 1) x numNodes states. Related
 * table-driven NoC work (output-queue deadlock-avoidance tables,
 * LUT-based fault-tolerant routing) shows the representation is
 * naturally a table; compiling once removes the virtual dispatch,
 * the per-call branching, and — for turn-table algorithms — the lazy
 * reachability cache, whose mutation makes the uncompiled form
 * thread-unsafe. A compiled table is immutable after construction and
 * therefore trivially shareable across the exec/ thread pool.
 *
 * Two layouts, chosen at construction:
 *
 *  - Sign-class table, when the source decides by sign
 *    (RoutingAlgorithm::decidesBySign: xy / e-cube, west-first,
 *    north-last, negative-first, p-cube, abonf, abopl) and the
 *    topology is a full grid (Topology::isFullGrid: NDMesh,
 *    Hypercube). One entry per arrival state and per sign vector of
 *    (dest - current), 3^n per state, each filled from one
 *    representative pair with coordinates 0 or 1. Each node's
 *    coordinates are packed into one 64-bit key of n fields; a lookup
 *    subtracts the two keys, reads the per-field signs off the guard
 *    bits and turns them into the class with one multiply — no
 *    division and no loop over dimensions. The n fields must each
 *    hold a coordinate plus a guard bit, and a class number, below
 *    bit 63: meshes of up to 4 dimensions with radices up to 16384,
 *    5 or 6 dimensions with radices up to 2048 or 512 (so
 *    Hypercube(n) up to n = 6). A
 *    128x128 west-first table is 36 bytes of entries plus 128 KiB of
 *    keys.
 *  - Dense table, for everything else (odd-even, MAD-y, turn tables
 *    and synthesized sets, torus adapters, fault-degraded meshes,
 *    escape VCs, grids whose keys would not fit): numNodes^2 x (numDirs + 1) x 4 bytes, or
 *    numNodes^2 x 4 when the source ignores the arrival direction
 *    (see DESIGN.md for the per-topology numbers).
 */

#ifndef TURNMODEL_CORE_ROUTING_COMPILED_HPP
#define TURNMODEL_CORE_ROUTING_COMPILED_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/routing.hpp"

namespace turnmodel {

/**
 * A routing algorithm precompiled into a lookup table.
 *
 * The snapshot is bit-for-bit faithful: for every (current, in_dir,
 * dest) triple with current != dest, routeSet() returns exactly what
 * the source algorithm returned at compile time (differential tests
 * assert this across the whole factory). Entries with current == dest
 * are empty — the contract says routing is never consulted there.
 */
class CompiledRoutingTable final : public RoutingAlgorithm
{
  public:
    /**
     * Snapshot @p source. The source is only needed during
     * construction; its topology must outlive this table.
     */
    explicit CompiledRoutingTable(const RoutingAlgorithm &source);

    DirectionSet
    routeSet(NodeId current, std::optional<Direction> in_dir,
             NodeId dest) const override
    {
        return table_[index(current, stateOf(in_dir), dest)];
    }

    /**
     * Raw lookup: @p in_state is 0 for injection or 1 + direction id
     * for an arrival direction (the same packing the reachability
     * oracle and the simulator use). Input-independent tables mask
     * the state to their single shared row.
     */
    DirectionSet lookup(NodeId current, int in_state, NodeId dest) const
    {
        return table_[index(current,
                            static_cast<std::size_t>(in_state)
                                & state_mask_,
                            dest)];
    }

    /** "compiled:" + the source algorithm's name. */
    std::string name() const override { return name_; }
    const Topology &topology() const override { return topo_; }
    bool isMinimal() const override { return minimal_; }
    bool isInputDependent() const override { return input_dependent_; }
    bool decidesBySign() const override { return by_sign_; }

    /** Arrival states per node stored: numDirs + 1, or 1 when the
     * source is input independent (all states share one row). */
    int statesPerNode() const { return states_per_node_; }

    /** Whether entries are indexed by sign class (3^n per state)
     * rather than by (node, destination). */
    bool isClassTable() const { return !keys_.empty(); }

    /** Table entries held: statesPerNode x 3^n for a sign-class
     * table, numNodes x statesPerNode x numNodes for a dense one. */
    std::size_t entries() const { return table_.size(); }

    /** Bytes held: the entries plus, for a sign-class table, the
     * per-node coordinate keys. */
    std::size_t sizeBytes() const
    {
        return table_.size() * sizeof(DirectionSet)
            + keys_.size() * sizeof(std::uint64_t);
    }

    /**
     * Whether every ordered (src, dest) pair has at least one
     * candidate from the injection state. For sources whose decisions
     * carry a reachability guard (PositionalTurnRouting and friends),
     * a non-empty injection entry implies the destination is actually
     * reachable, so this is exactly the turn model's Step-4 full-
     * connectivity requirement; for unguarded sources it is only the
     * necessary first step of it.
     */
    bool allPairsRoutable() const;

  private:
    void compileDense(const RoutingAlgorithm &source);
    void compileSignClasses(const RoutingAlgorithm &source,
                            int field_bits);

    std::size_t stateOf(std::optional<Direction> in_dir) const
    {
        // Input-independent tables hold one shared row at state 0.
        if (states_per_node_ == 1)
            return 0;
        return in_dir ? 1 + static_cast<std::size_t>(in_dir->id()) : 0;
    }

    std::size_t index(NodeId current, std::size_t in_state,
                      NodeId dest) const
    {
        if (keys_.empty()) {
            return (static_cast<std::size_t>(current)
                        * static_cast<std::size_t>(states_per_node_)
                    + in_state)
                * row_size_ + dest;
        }
        return in_state * row_size_ + signClass(current, dest);
    }

    /**
     * Base-3 number whose digit d is 0, 1 or 2 as dest's coordinate d
     * is below, equal to or above current's.
     */
    std::size_t signClass(NodeId current, NodeId dest) const
    {
        // Field d of diff + guards_ is 2^(w-1) + dest_d - current_d,
        // in [1, 2^w - 1], so no field borrows from the next: its top
        // bit says dest_d >= current_d, and the top bit of the field
        // minus one says dest_d > current_d. Their sum is digit d.
        const std::uint64_t diff = keys_[static_cast<std::size_t>(dest)]
            - keys_[static_cast<std::size_t>(current)];
        const std::uint64_t digits = ((diff + guards_) & guards_)
            + ((diff + guards_ - field_ones_) & guards_);
        // One multiply sums digit d x 3^d into the field that starts
        // at bit 64 of the 128-bit product.
        const auto product =
            static_cast<unsigned __int128>(digits) * radix3_;
        return static_cast<std::size_t>(
            static_cast<std::uint64_t>(product >> 64) & field_mask_);
    }

    const Topology &topo_;
    std::string name_;
    bool minimal_;
    bool input_dependent_;
    bool by_sign_;
    int states_per_node_;
    /** ~0 normally; 0 when all states collapse to one row. */
    std::size_t state_mask_;
    /** Entries per (node, state) row of a dense table (numNodes), or
     * per state of a sign-class table (3^n). */
    std::size_t row_size_ = 0;
    /** Sign-class table: the coordinates of node v packed into one
     * key, coordinate d in field d of w bits (w - 1 suffice for the
     * coordinate); empty for a dense table. */
    std::vector<std::uint64_t> keys_;
    /** The top bit of every field. */
    std::uint64_t guards_ = 0;
    /** The bottom bit of every field. */
    std::uint64_t field_ones_ = 0;
    /** 3^(n-1-j) at bit j*w + 65 - n*w, for j in [0, n). */
    std::uint64_t radix3_ = 0;
    /** 2^w - 1. */
    std::uint64_t field_mask_ = 0;
    std::vector<DirectionSet> table_;
};

} // namespace turnmodel

#endif // TURNMODEL_CORE_ROUTING_COMPILED_HPP
