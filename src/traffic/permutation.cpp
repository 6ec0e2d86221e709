#include "traffic/permutation.hpp"

#include <vector>

#include "util/bitops.hpp"
#include "util/logging.hpp"

namespace turnmodel {

namespace {

bool
isBinaryTopology(const Topology &topo)
{
    // Patterns address the *physical* node space, so inspect the
    // physical shape rather than the (possibly virtualized)
    // routing dimensions.
    for (int k : topo.shape()) {
        if (k != 2)
            return false;
    }
    return true;
}

} // namespace

PermutationTraffic::PermutationTraffic(const Topology &topo)
    : topo_(topo)
{
}

std::optional<NodeId>
PermutationTraffic::destination(NodeId src, Rng &) const
{
    std::call_once(table_once_, [this] {
        table_.resize(topo_.numNodes());
        for (NodeId v = 0; v < topo_.numNodes(); ++v)
            table_[v] = map(v);
    });
    const NodeId d = table_[src];
    if (d == src)
        return std::nullopt;
    return d;
}

bool
PermutationTraffic::isBijective() const
{
    std::vector<bool> hit(topo_.numNodes(), false);
    for (NodeId v = 0; v < topo_.numNodes(); ++v) {
        const NodeId d = map(v);
        if (d >= topo_.numNodes() || hit[d])
            return false;
        hit[d] = true;
    }
    return true;
}

MeshTransposeTraffic::MeshTransposeTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
    TM_ASSERT(topo.shape().size() == 2 &&
                  topo.shape()[0] == topo.shape()[1],
              "mesh transpose requires a square 2D topology");
}

NodeId
MeshTransposeTraffic::map(NodeId src) const
{
    // The paper indexes processors by (row i, column j) with rows
    // numbered from the top, as in a matrix; with the mesh y axis
    // pointing north this renders (i, j) -> (j, i) as the reflection
    // across the anti-diagonal. Both coordinate deltas then share
    // one sign, so negative-first routing is fully adaptive on every
    // transpose pair — the property behind the paper's Figure 14.
    const Coords c = topo_.coords(src);
    const int m = topo_.shape()[0];
    return topo_.node({m - 1 - c[1], m - 1 - c[0]});
}

HypercubeTransposeTraffic::HypercubeTransposeTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
    TM_ASSERT(isBinaryTopology(topo) && topo.shape().size() % 2 == 0,
              "hypercube transpose requires a binary cube of even "
              "dimension");
}

NodeId
HypercubeTransposeTraffic::map(NodeId src) const
{
    const int n = static_cast<int>(topo_.shape().size());
    const int half = n / 2;
    std::uint64_t out = 0;
    for (int i = 0; i < n; ++i) {
        bool bit = bitOf(src, (i + half) % n);
        // The first bit of each half is complemented — this is how
        // the paper's mesh-to-hypercube embedding renders (i, j) ->
        // (j, i) on the 8-cube: (~x4, x5, x6, x7, ~x0, x1, x2, x3).
        if (i % half == 0)
            bit = !bit;
        out = withBit(out, i, bit);
    }
    return static_cast<NodeId>(out);
}

ReverseFlipTraffic::ReverseFlipTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
    TM_ASSERT(isBinaryTopology(topo),
              "reverse-flip requires a binary topology");
}

NodeId
ReverseFlipTraffic::map(NodeId src) const
{
    const int n = static_cast<int>(topo_.shape().size());
    return static_cast<NodeId>(
        complementBits(reverseBits(src, n), n));
}

BitComplementTraffic::BitComplementTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
}

NodeId
BitComplementTraffic::map(NodeId src) const
{
    Coords c = topo_.coords(src);
    for (std::size_t d = 0; d < c.size(); ++d)
        c[d] = topo_.shape()[d] - 1 - c[d];
    return topo_.node(c);
}

BitReversalTraffic::BitReversalTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
    TM_ASSERT(isBinaryTopology(topo),
              "bit-reversal requires a binary topology");
}

NodeId
BitReversalTraffic::map(NodeId src) const
{
    return static_cast<NodeId>(
        reverseBits(src, static_cast<int>(topo_.shape().size())));
}

ShuffleTraffic::ShuffleTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
    TM_ASSERT(isBinaryTopology(topo), "shuffle requires a binary topology");
}

NodeId
ShuffleTraffic::map(NodeId src) const
{
    const int n = static_cast<int>(topo_.shape().size());
    const std::uint64_t x = src;
    return static_cast<NodeId>(
        ((x << 1) | (x >> (n - 1))) & lowMask(n));
}

TornadoTraffic::TornadoTraffic(const Topology &topo)
    : PermutationTraffic(topo)
{
}

NodeId
TornadoTraffic::map(NodeId src) const
{
    Coords c = topo_.coords(src);
    for (std::size_t d = 0; d < c.size(); ++d) {
        const int k = topo_.shape()[d];
        c[d] = (c[d] + (k + 1) / 2 - 1) % k;
    }
    return topo_.node(c);
}

} // namespace turnmodel
