/**
 * @file
 * Deterministic round-robin arbiter for the VC router's separable
 * switch allocator. One arbiter guards one crossbar resource (a
 * physical input port or a physical output wire); its members are
 * global port ids. Priority rotates only when a grant is confirmed
 * (the request won every stage), the pointer-update rule that keeps
 * separable input-first/output-first allocation starvation free.
 *
 * Determinism contract: select() depends only on the candidate set
 * and the stored priority pointer — no randomness, no wall clock, no
 * iteration-order sensitivity (candidates may arrive in any order) —
 * so simulation results are bit-identical at any --jobs level.
 *
 * SeparableAllocator runs the two arbiter stages of one switch
 * allocation round over a router shard's crossbar resources in
 * O(requests): each stage keeps the current winner of every resource
 * in a stamped per-resource slot instead of sorting the requests into
 * groups.
 */

#ifndef TURNMODEL_ROUTER_ARBITER_HPP
#define TURNMODEL_ROUTER_ARBITER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace turnmodel {

/** Rotating-priority arbiter over member ids in [0, universe). */
class RoundRobinArbiter
{
  public:
    RoundRobinArbiter() = default;

    explicit RoundRobinArbiter(std::uint32_t universe)
        : universe_(universe)
    {
    }

    /**
     * The winner among @p n candidate ids (distinct, < universe, any
     * order, n >= 1): the candidate at the smallest cyclic distance
     * at or after the priority pointer. Does not advance the pointer.
     */
    std::uint32_t select(const std::uint32_t *candidates,
                         std::size_t n) const;

    /** Cyclic distance of member @p id from the priority pointer;
     * select() returns the candidate that minimizes it. */
    std::uint32_t distance(std::uint32_t id) const
    {
        return id >= next_ ? id - next_ : id + universe_ - next_;
    }

    /**
     * Record that @p winner 's grant was confirmed: priority moves to
     * the member after it, so the arbiter cycles through contenders.
     */
    void confirm(std::uint32_t winner)
    {
        next_ = winner + 1 == universe_ ? 0 : winner + 1;
    }

    /** Member currently holding top priority. */
    std::uint32_t priority() const { return next_; }

  private:
    std::uint32_t universe_ = 1;
    std::uint32_t next_ = 0;
};

/** An input VC's bid for the crossbar: its granted output VC. */
struct SwitchRequest
{
    std::uint32_t in_port;
    std::uint32_t out_port;
};

/**
 * Separable two-stage switch allocator over the crossbar resources
 * [base, base + count) (a shard's routers). One round keeps, per
 * resource of the first stage, the request its arbiter prefers
 * (RoundRobinArbiter::select over that resource's requests), then
 * does the same for the survivors under the second stage's
 * resources. Cost per round: O(requests) plus a count/64-word scan
 * that emits the grants in ascending second-stage resource order.
 */
class SeparableAllocator
{
  public:
    /** Cover resources [@p base, @p base + @p count). */
    void configure(std::uint32_t base, std::uint32_t count);

    /**
     * One allocation round. @p reqs holds requests with distinct
     * in_port and distinct out_port values; on return it holds the
     * requests that won both stages, in ascending order of their
     * second-stage resource. @p in_res / @p out_res map a port to
     * its crossbar resource (in [base, base + count)); @p in_arb /
     * @p out_arb are indexed by resource. The input stage arbitrates
     * first when @p input_first, the output stage otherwise. Only
     * the winners' arbiters advance (RoundRobinArbiter::confirm).
     */
    void allocate(std::vector<SwitchRequest> &reqs,
                  const std::uint32_t *in_res,
                  const std::uint32_t *out_res,
                  RoundRobinArbiter *in_arb,
                  RoundRobinArbiter *out_arb, bool input_first);

  private:
    /** A resource's best request so far in the round of `stamp`. */
    struct Slot
    {
        std::uint64_t stamp = 0;
        SwitchRequest req{0, 0};
    };

    std::uint32_t base_ = 0;
    std::uint64_t round_ = 0;
    std::vector<Slot> first_;
    std::vector<Slot> second_;
    /** First-stage resources holding a request this round. */
    std::vector<std::uint32_t> touched_;
    /** Second-stage resources holding a winner this round. */
    std::vector<std::uint64_t> won_;
};

} // namespace turnmodel

#endif // TURNMODEL_ROUTER_ARBITER_HPP
