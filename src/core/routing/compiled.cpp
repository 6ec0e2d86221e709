#include "core/routing/compiled.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "topology/topology.hpp"
#include "util/logging.hpp"

namespace turnmodel {

namespace {

/** The arrival direction a packed in-state stands for. */
std::optional<Direction>
stateDirection(int state)
{
    if (state == 0)
        return std::nullopt;
    return Direction::fromId(static_cast<DirId>(state - 1));
}

/**
 * Bits w per coordinate field of a sign-class key on @p shape: room
 * for the largest coordinate plus a guard bit, and for a class number
 * (below 3^n). 0 when the n fields and the carry out of the last one
 * (digit 2 of the last dimension, at bit n*w) do not fit 64 bits.
 */
int
signKeyFieldBits(const Shape &shape)
{
    std::uint64_t classes = 1;
    int max_radix = 1;
    for (int k : shape) {
        classes *= 3;
        max_radix = std::max(max_radix, k);
    }
    const int bits = std::max(
        static_cast<int>(
            std::bit_width(static_cast<unsigned>(max_radix - 1)))
            + 1,
        static_cast<int>(std::bit_width(classes - 1)));
    return bits * static_cast<int>(shape.size()) < 64 ? bits : 0;
}

} // namespace

CompiledRoutingTable::CompiledRoutingTable(const RoutingAlgorithm &source)
    : topo_(source.topology()),
      name_("compiled:" + source.name()),
      minimal_(source.isMinimal()),
      input_dependent_(source.isInputDependent()),
      by_sign_(source.decidesBySign()),
      states_per_node_(input_dependent_ ? topo_.numDirs() + 1 : 1),
      state_mask_(input_dependent_ ? ~std::size_t{0} : 0)
{
    TM_ASSERT(topo_.numDirs() <= DirectionSet::kMaxDirs,
              "topology has more directions than a DirectionSet holds");
    const int field_bits = by_sign_ && topo_.isFullGrid()
        ? signKeyFieldBits(topo_.shape())
        : 0;
    if (field_bits > 0)
        compileSignClasses(source, field_bits);
    else
        compileDense(source);
}

void
CompiledRoutingTable::compileDense(const RoutingAlgorithm &source)
{
    const NodeId num_nodes = topo_.numNodes();
    row_size_ = static_cast<std::size_t>(num_nodes);
    table_.reserve(row_size_ * static_cast<std::size_t>(states_per_node_)
                   * row_size_);
    // Each entry is written once, in index order. Every arrival state
    // is snapshotted — even ones no physical channel can produce — so
    // the table answers bit-for-bit like the source on any triple.
    for (NodeId node = 0; node < num_nodes; ++node) {
        for (int state = 0; state < states_per_node_; ++state) {
            const std::optional<Direction> in = stateDirection(state);
            for (NodeId dest = 0; dest < num_nodes; ++dest) {
                // Routing is never consulted at the destination.
                table_.push_back(node == dest
                                     ? DirectionSet()
                                     : source.routeSet(node, in, dest));
            }
        }
    }
}

void
CompiledRoutingTable::compileSignClasses(const RoutingAlgorithm &source,
                                         int field_bits)
{
    const Shape &shape = topo_.shape();
    const std::size_t dims = shape.size();
    const auto w = static_cast<unsigned>(field_bits);
    row_size_ = 1;
    for (std::size_t d = 0; d < dims; ++d) {
        guards_ |= std::uint64_t{1} << (d * w + w - 1);
        field_ones_ |= std::uint64_t{1} << (d * w);
        // Digit d, at bit d*w + w - 1, times 3^(n-1-j) at bit
        // j*w + 65 - n*w lands at bit 64 exactly when d + j = n - 1.
        radix3_ += static_cast<std::uint64_t>(row_size_)
            << ((dims - 1 - d) * w + 65 - dims * w);
        row_size_ *= 3;
    }
    field_mask_ = (std::uint64_t{1} << w) - 1;

    // Keys of every node, by an odometer over the node ids (dimension
    // 0 varies fastest, as in the node numbering).
    keys_.reserve(static_cast<std::size_t>(topo_.numNodes()));
    Coords odometer(dims, 0);
    for (NodeId v = 0; v < topo_.numNodes(); ++v) {
        std::uint64_t key = 0;
        for (std::size_t d = 0; d < dims; ++d)
            key |= static_cast<std::uint64_t>(odometer[d]) << (d * w);
        keys_.push_back(key);
        for (std::size_t d = 0; d < dims && ++odometer[d] == shape[d];
             ++d)
            odometer[d] = 0;
    }

    table_.reserve(static_cast<std::size_t>(states_per_node_) * row_size_);
    Coords cur(dims);
    Coords dest(dims);
    for (int state = 0; state < states_per_node_; ++state) {
        const std::optional<Direction> in = stateDirection(state);
        for (std::size_t cls = 0; cls < row_size_; ++cls) {
            // Representative pair of the class (every radix is at
            // least 2, as shapeSize() enforces): in each dimension
            // whose sign digit is not 1 (equal), the two coordinates
            // are 0 and 1 in the class's order; elsewhere both are 0.
            bool distinct = false;
            std::size_t rest = cls;
            for (std::size_t d = 0; d < dims; ++d, rest /= 3) {
                const std::size_t digit = rest % 3;
                cur[d] = digit == 0 ? 1 : 0;
                dest[d] = digit == 2 ? 1 : 0;
                distinct = distinct || digit != 1;
            }
            // The all-equal class is current == dest: left empty.
            table_.push_back(distinct
                                 ? source.routeSet(topo_.node(cur), in,
                                                   topo_.node(dest))
                                 : DirectionSet());
        }
    }
}

bool
CompiledRoutingTable::allPairsRoutable() const
{
    for (NodeId src = 0; src < topo_.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo_.numNodes(); ++dst) {
            if (src != dst && lookup(src, 0, dst).empty())
                return false;
        }
    }
    return true;
}

} // namespace turnmodel
