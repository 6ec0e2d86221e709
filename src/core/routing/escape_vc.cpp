#include "core/routing/escape_vc.hpp"

#include "core/routing/factory.hpp"
#include "util/logging.hpp"

namespace turnmodel {

EscapeVcRouting::EscapeVcRouting(const VirtualizedMesh &mesh,
                                 const std::string &inner_name)
    : mesh_(mesh), phys_mesh_(std::make_unique<NDMesh>(mesh.shape()))
{
    for (int p = 0; p < mesh_.numPhysicalDims(); ++p) {
        if (mesh_.vcsOf(p) < 2) {
            TM_FATAL("escape-VC routing needs >= 2 virtual channels "
                     "in every physical dimension; dimension ", p,
                     " of ", mesh_.name(), " has ", mesh_.vcsOf(p));
        }
    }
    inner_ = makeRouting(inner_name, *phys_mesh_);
    name_ = "vc:" + inner_name;
}

DirectionSet
EscapeVcRouting::routeSet(NodeId current, std::optional<Direction> in_dir,
                          NodeId dest) const
{
    const bool on_escape =
        in_dir && mesh_.vcIndex(in_dir->dim) == 0;

    // Escape candidates: the inner algorithm decides on the physical
    // mesh and its directions map onto VC 0. A packet already on an
    // escape channel keeps the inner algorithm's view of its arrival
    // direction (stay-on-escape); one dropping in from an adaptive
    // channel or from injection enters the inner network fresh.
    const std::optional<Direction> inner_in =
        on_escape
            ? std::make_optional(mesh_.physicalDirection(*in_dir))
            : std::nullopt;
    DirectionSet escape;
    for (Direction pd : inner_->routeSet(current, inner_in, dest)) {
        escape.insert(Direction(
            static_cast<std::uint8_t>(mesh_.virtualDim(pd.dim, 0)),
            pd.positive));
    }
    if (on_escape)
        return escape;

    // Adaptive candidates: every profitable hop on every VC >= 1. A
    // virtual direction is profitable exactly when its physical one
    // is, so the physical mesh decides once per physical direction.
    DirectionSet adaptive;
    for (Direction pd : minimalDirectionSet(*phys_mesh_, current, dest)) {
        for (int vc = 1; vc < mesh_.vcsOf(pd.dim); ++vc) {
            adaptive.insert(Direction(
                static_cast<std::uint8_t>(mesh_.virtualDim(pd.dim, vc)),
                pd.positive));
        }
    }
    return adaptive | escape;
}

} // namespace turnmodel
