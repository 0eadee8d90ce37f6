#include "core/static_policies.hh"

#include <limits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace capart
{

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Shared:
        return "shared";
      case Policy::Fair:
        return "fair";
      case Policy::Biased:
        return "biased";
      case Policy::Dynamic:
        return "dynamic";
    }
    capart_panic("unknown policy");
}

SplitMasks
policyMasks(Policy p, unsigned total_ways, unsigned biased_fg_ways)
{
    SplitMasks m;
    switch (p) {
      case Policy::Shared:
        m.fg = WayMask::all(total_ways);
        m.bg = WayMask::all(total_ways);
        return m;
      case Policy::Fair:
        return splitWays(total_ways / 2, total_ways);
      case Policy::Biased:
        capart_assert(biased_fg_ways >= 1 &&
                      biased_fg_ways < total_ways);
        return splitWays(biased_fg_ways, total_ways);
      case Policy::Dynamic:
        // The dynamic controller starts from a near-maximal foreground
        // allocation and adapts from there (§6.3).
        return splitWays(total_ways - 1, total_ways);
    }
    capart_panic("unknown policy");
}

BiasedSearchResult
findBiasedPartition(const AppParams &fg, const AppParams &bg,
                    const BiasedSearchOptions &opts)
{
    BiasedSearchResult result;
    const unsigned total = opts.pair.system.hierarchy.llc.ways;
    capart_assert(opts.minWays >= 1);
    capart_assert(total >= 2 * opts.minWays);

    Seconds best_time = std::numeric_limits<double>::infinity();
    std::vector<PairResult> runs;
    for (unsigned fg_ways = opts.minWays; fg_ways <= total - opts.minWays;
         ++fg_ways) {
        PairOptions pair = opts.pair;
        const SplitMasks masks = splitWays(fg_ways, total);
        pair.fgMask = masks.fg;
        pair.bgMask = masks.bg;
        const PairResult r = runPair(fg, bg, pair);

        BiasedSweepPoint pt;
        pt.fgWays = fg_ways;
        pt.fgTime = r.fgTime;
        pt.bgThroughput = r.bgThroughput;
        result.sweep.push_back(pt);
        runs.push_back(r);
        if (r.fgTime < best_time)
            best_time = r.fgTime;
    }

    // Among splits whose foreground time is within tolerance of the
    // best, pick the split with the highest background throughput.
    double best_bg = -1.0;
    std::size_t best = runs.size();
    for (std::size_t i = 0; i < result.sweep.size(); ++i) {
        const BiasedSweepPoint &pt = result.sweep[i];
        if (pt.fgTime <= best_time * (1.0 + opts.tolerance) &&
            pt.bgThroughput > best_bg) {
            best_bg = pt.bgThroughput;
            best = i;
        }
    }
    capart_assert(best < runs.size());
    result.fgWays = result.sweep[best].fgWays;
    result.fgTime = result.sweep[best].fgTime;
    result.bgThroughput = result.sweep[best].bgThroughput;
    result.masks = splitWays(result.fgWays, total);
    result.winner = std::move(runs[best]);
    return result;
}

} // namespace capart
