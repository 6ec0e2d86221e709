#include "select/congestion.hpp"

#include "util/logging.hpp"

namespace turnmodel {

void
BlockedCongestion::configure(NodeId num_nodes, int ports_per_router,
                             const std::vector<std::int32_t> &out_to_in,
                             const std::vector<std::uint32_t> &shard_ports)
{
    const auto ppr = static_cast<std::uint32_t>(ports_per_router);
    const std::size_t total = static_cast<std::size_t>(num_nodes) * ppr;
    TM_ASSERT(out_to_in.size() == total && shard_ports.size() >= 2 &&
                  shard_ports.back() == total,
              "congestion state sized for another network");
    ports_.assign(total, PortState{});
    router_sum_.assign(num_nodes, 0);
    scores_.assign(total, 0);
    down_router_.resize(total);
    for (std::uint32_t p = 0; p < total; ++p) {
        if (p % ppr != ppr - 1)
            ports_[p].sum_router = static_cast<std::int32_t>(p / ppr);
        down_router_[p] = out_to_in[p] < 0
            ? -1
            : static_cast<std::int32_t>(
                  static_cast<std::uint32_t>(out_to_in[p]) / ppr);
    }
    live_.assign(total, 0);
    lanes_.assign(shard_ports.size() - 1, Lane{});
    // Reserve each shard's worst case so the hot loop never grows a
    // list.
    for (std::size_t s = 0; s + 1 < shard_ports.size(); ++s)
        lanes_[s].live.reserve(shard_ports[s + 1] - shard_ports[s]);
}

} // namespace turnmodel
