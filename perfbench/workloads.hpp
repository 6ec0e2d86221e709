/**
 * @file
 * The networks each workload simulates, shared by the workload
 * rounds (workloads.cpp) and the per-layer probes (probes.cpp).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/routing.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"
#include "traffic/pattern.hpp"

namespace perfbench {

using turnmodel::NodeId;
using turnmodel::SimConfig;
using turnmodel::Topology;
using turnmodel::TrafficPattern;

/** One of the paper's Section 6 figures (Glass & Ni, Figs. 13-16). */
struct Figure
{
    const char *name;
    bool hypercube;   ///< 8-cube; otherwise the 16x16 mesh.
    const char *pattern;
    std::vector<std::string> algorithms;
    double rate_lo;
    double rate_hi;
};

/** Figures 13-16 as the fig1x binaries define them. */
const std::vector<Figure> &paperFigures();
std::unique_ptr<Topology> figureTopology(const Figure &figure);
/** The figure's injection-rate ladder (8 geometric points). */
std::vector<double> figureRates(const Figure &figure);
/** The fig1x binaries' default fidelity, with the run's seed. */
SimConfig paperConfig(std::uint64_t seed);
/** Points after this many consecutive saturated ones are dropped. */
inline constexpr int kStopAfterSaturated = 2;

/** vc_adaptive: escape-VC west-first on a 2-VC mesh, transpose. */
inline constexpr int kVcRadix = 20;
inline constexpr const char *kVcAlgorithm = "vc:west-first";
inline constexpr const char *kVcInner = "west-first";
inline constexpr const char *kVcPattern = "transpose";
std::unique_ptr<Topology> vcTopology();
/** The physical mesh under vcTopology(). */
std::unique_ptr<Topology> vcPhysicalTopology();
SimConfig vcConfig(std::uint64_t seed);

/** soak_reqreply: west-first on a 64x64 mesh, MMPP requests. */
inline constexpr int kSoakRadix = 64;
inline constexpr const char *kSoakAlgorithm = "west-first";
inline constexpr const char *kSoakPattern = "uniform";
std::unique_ptr<Topology> soakTopology();
SimConfig soakConfig(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
