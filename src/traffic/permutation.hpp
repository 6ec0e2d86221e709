/**
 * @file
 * Deterministic permutation traffic patterns. Each node always sends
 * to the same partner; nodes mapped to themselves generate no
 * network traffic. Includes the paper's matrix-transpose (mesh and
 * hypercube forms) and reverse-flip, plus the classic bit-complement,
 * bit-reversal, shuffle, and tornado patterns as extensions.
 */

#ifndef TURNMODEL_TRAFFIC_PERMUTATION_HPP
#define TURNMODEL_TRAFFIC_PERMUTATION_HPP

#include <mutex>

#include "traffic/pattern.hpp"

namespace turnmodel {

/** Base for fixed source-to-destination mappings. */
class PermutationTraffic : public TrafficPattern
{
  public:
    /** @param topo Topology; must outlive this object. */
    explicit PermutationTraffic(const Topology &topo);

    std::optional<NodeId> destination(NodeId src, Rng &rng) const override;
    bool isDeterministic() const override { return true; }

    /** The underlying mapping (may map a node to itself). */
    virtual NodeId map(NodeId src) const = 0;

    /** Whether the mapping is a bijection on the node set. */
    bool isBijective() const;

  protected:
    const Topology &topo_;

  private:
    // map() typically round-trips through coordinate vectors, which
    // allocates; destination() sits in the simulator's per-message
    // path and must not. The full table is tiny (one NodeId per
    // node), so it is memoized on first use — lazily, because map()
    // is virtual and unavailable in this base's constructor. Parallel
    // sweep points share one pattern, so the fill runs under
    // call_once: a reader must never see the table half built.
    mutable std::once_flag table_once_;
    mutable std::vector<NodeId> table_;
};

/**
 * Matrix transpose in a 2D mesh: the processor at row i, column j
 * sends to the processor at row j, column i. Rows are numbered from
 * the top (matrix convention), so in (x, y) mesh coordinates the map
 * is the anti-diagonal reflection (x, y) -> (m-1-y, m-1-x).
 * Requires a square 2D topology.
 */
class MeshTransposeTraffic : public PermutationTraffic
{
  public:
    explicit MeshTransposeTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "transpose"; }
};

/**
 * The paper's hypercube rendering of matrix transpose: messages go
 * from (x_0,...,x_{n-1}) to the address whose halves are swapped
 * with the first bit of each half complemented; for the 8-cube,
 * (x0..x7) -> (~x4, x5, x6, x7, ~x0, x1, x2, x3).
 */
class HypercubeTransposeTraffic : public PermutationTraffic
{
  public:
    explicit HypercubeTransposeTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "transpose"; }
};

/**
 * Reverse-flip: (x_0,...,x_{n-1}) -> (~x_{n-1},...,~x_0) — the bit
 * order reversed and every bit complemented (binary topologies).
 */
class ReverseFlipTraffic : public PermutationTraffic
{
  public:
    explicit ReverseFlipTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "reverse-flip"; }
};

/** Bit-complement: every coordinate reflected, x_i -> k_i-1-x_i. */
class BitComplementTraffic : public PermutationTraffic
{
  public:
    explicit BitComplementTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "bit-complement"; }
};

/** Bit-reversal of the binary node address (binary topologies). */
class BitReversalTraffic : public PermutationTraffic
{
  public:
    explicit BitReversalTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "bit-reversal"; }
};

/** Perfect shuffle: rotate the binary address left by one. */
class ShuffleTraffic : public PermutationTraffic
{
  public:
    explicit ShuffleTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "shuffle"; }
};

/**
 * Tornado: each node sends (ceil(k/2) - 1) hops around its row in
 * the positive direction of every dimension — an adversarial torus
 * pattern.
 */
class TornadoTraffic : public PermutationTraffic
{
  public:
    explicit TornadoTraffic(const Topology &topo);
    NodeId map(NodeId src) const override;
    std::string name() const override { return "tornado"; }
};

} // namespace turnmodel

#endif // TURNMODEL_TRAFFIC_PERMUTATION_HPP
