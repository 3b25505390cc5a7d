/**
 * @file
 * Region fill for the map-type tree sweeps (paper Section IV-C1).
 *
 * conv2d, debayer, the kmeans assignment and the histeq apply stage
 * each compute one value per tree sample, `chunk` samples per diffusive
 * step, and each worker keeps its values densely in the order of its
 * slice. After a window, every worker writes its own values over their
 * regions (TreeSweepPlan::fillRegion). The regions of different samples
 * are disjoint, so the gang fills in parallel, without a lock or a
 * replay, and every version equals the sequential ordinal-order fill.
 */

#ifndef ANYTIME_APPS_TREE_FILL_HPP
#define ANYTIME_APPS_TREE_FILL_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/parallel_stage.hpp"
#include "image/image.hpp"
#include "image/progressive.hpp"
#include "support/error.hpp"

namespace anytime {

/**
 * Write the values of one worker's @p slice of a window: @p values
 * holds, in slice order, the value of every sample of every step the
 * slice ran, where step s covers samples [s * chunk, (s + 1) * chunk)
 * clipped to the plan.
 */
template <typename T>
void
fillTreeSlice(Image<T> &out, const TreeSweepPlan &plan, std::uint64_t chunk,
              const SweepSlice &slice, const std::vector<T> &values)
{
    const auto sample_end = [&](std::uint64_t step) {
        return static_cast<std::size_t>(
            std::min<std::uint64_t>(plan.size(), step * chunk));
    };
    const TreeSweepPlan::Regions regions = plan.regionsAt(sample_end(slice.end));
    std::size_t j = 0;
    for (std::uint64_t k = 0; k < slice.size; ++k) {
        const std::uint64_t step = slice.step(k);
        const std::size_t end = sample_end(step + 1);
        for (std::size_t s = sample_end(step); s < end; ++s)
            plan.fillRegion(out, regions, s, values[j++]);
    }
    panicIf(j != values.size(), "fillTreeSlice: ", values.size(),
            " values for ", j, " samples");
}

} // namespace anytime

#endif // ANYTIME_APPS_TREE_FILL_HPP
