#include "router/arbiter.hpp"

#include <bit>

namespace turnmodel {

std::uint32_t
RoundRobinArbiter::select(const std::uint32_t *candidates,
                          std::size_t n) const
{
    std::uint32_t best = candidates[0];
    std::uint32_t best_dist = distance(best);
    for (std::size_t i = 1; i < n; ++i) {
        const std::uint32_t dist = distance(candidates[i]);
        if (dist < best_dist) {
            best = candidates[i];
            best_dist = dist;
        }
    }
    return best;
}

void
SeparableAllocator::configure(std::uint32_t base, std::uint32_t count)
{
    base_ = base;
    round_ = 0;
    first_.assign(count, Slot{});
    second_.assign(count, Slot{});
    touched_.clear();
    touched_.reserve(count);
    won_.assign((count + 63) / 64, 0);
}

void
SeparableAllocator::allocate(std::vector<SwitchRequest> &reqs,
                             const std::uint32_t *in_res,
                             const std::uint32_t *out_res,
                             RoundRobinArbiter *in_arb,
                             RoundRobinArbiter *out_arb,
                             bool input_first)
{
    if (reqs.empty())
        return;
    ++round_;
    // Offer @p r to its resource in one stage; true when it is the
    // resource's first request this round. Members are distinct
    // within a stage, so the minimum distance is unique.
    const auto offer = [this](std::vector<Slot> &slots, bool by_input,
                              const std::uint32_t *res,
                              const RoundRobinArbiter *arb,
                              const SwitchRequest &r,
                              std::uint32_t &local) {
        const std::uint32_t member = by_input ? r.in_port : r.out_port;
        const std::uint32_t k = res[member];
        local = k - base_;
        Slot &slot = slots[local];
        if (slot.stamp != round_) {
            slot.stamp = round_;
            slot.req = r;
            return true;
        }
        const std::uint32_t held =
            by_input ? slot.req.in_port : slot.req.out_port;
        if (arb[k].distance(member) < arb[k].distance(held))
            slot.req = r;
        return false;
    };

    const std::uint32_t *res1 = input_first ? in_res : out_res;
    const std::uint32_t *res2 = input_first ? out_res : in_res;
    const RoundRobinArbiter *arb1 = input_first ? in_arb : out_arb;
    const RoundRobinArbiter *arb2 = input_first ? out_arb : in_arb;
    touched_.clear();
    std::uint32_t local = 0;
    for (const SwitchRequest &r : reqs) {
        if (offer(first_, input_first, res1, arb1, r, local))
            touched_.push_back(local);
    }
    for (std::uint32_t k : touched_) {
        if (offer(second_, !input_first, res2, arb2, first_[k].req,
                  local)) {
            won_[local >> 6] |= std::uint64_t{1} << (local & 63);
        }
    }

    // Emit in ascending resource order, confirming each grant: a
    // stage winner that lost the other stage keeps its priority.
    reqs.clear();
    for (std::size_t w = 0; w < won_.size(); ++w) {
        std::uint64_t bits = won_[w];
        won_[w] = 0;
        while (bits != 0) {
            const auto k = static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
            bits &= bits - 1;
            const SwitchRequest &g = second_[k].req;
            in_arb[in_res[g.in_port]].confirm(g.in_port);
            out_arb[out_res[g.out_port]].confirm(g.out_port);
            reqs.push_back(g);
        }
    }
}

} // namespace turnmodel
