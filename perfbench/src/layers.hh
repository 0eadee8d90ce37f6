/**
 * @file
 * Layer replays of the traced run. Each drives one src/ layer on its
 * own, through its public interface, with inputs taken from the
 * workload's own apps, so its host cost per operation and its work
 * counts can be read apart from the rest of the simulator.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/experiment_spec.hh"
#include "obs/timeseries.hh"
#include "sim/system_config.hh"
#include "spans.hh"
#include "workload/app_params.hh"

namespace perfbench
{

/** Generator, cache hierarchy and prefetcher replay figures. */
struct StreamReplay
{
    double genNsPerAccess = 0.0;
    std::uint64_t accesses = 0;
    /** Host ns per hierarchy operation (demand access or prefetch fill). */
    double memNsPerOp = 0.0;
    std::uint64_t llcAccesses = 0;
    double l1HitRatio = 0.0;
    double l2HitRatio = 0.0;
    double llcHitRatio = 0.0;
    double prefetchNsPerObserve = 0.0;
    std::uint64_t prefetchIssued = 0;
};

/**
 * Generate one thread's access stream of each app in @p apps at
 * @p scale (ThreadWorkload::runQuantum), then replay the streams,
 * interleaved, through a PrefetcherBank per core and through a
 * CacheHierarchy of @p system (demand accesses plus the prefetch fills
 * the bank asked for). The hierarchy starts empty.
 */
StreamReplay replayStreams(const std::vector<capart::AppParams> &apps,
                           const capart::SystemConfig &system, double scale,
                           std::uint64_t seed, SpanRecorder &spans);

/** profileMissCurve replay figures. */
struct ProfileReplay
{
    /** Host seconds one round spends profiling (replayed calls times
     *  the curve-driven policies that profile them). */
    double roundS = 0.0;
    double nsPerRef = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Re-run the miss-curve profiles runNApp makes for each N-app spec of
 * a round (every member, once per UCP/LFOC policy requested), with the
 * same system, seed, scale and reference cap.
 */
ProfileReplay replayProfiles(const std::vector<capart::exec::ExperimentSpec> &specs,
                             std::uint64_t seed, SpanRecorder &spans);

/** Decision replay figures. */
struct DecideReplay
{
    /** Journaled decision records, replayable or not. */
    std::uint64_t decisions = 0;
    /** Host ns per replayed decision-function call. */
    double nsPerDecide = 0.0;
    /** Replayed decisions whose output differs from the journal. */
    std::uint64_t mismatches = 0;
};

/**
 * Replay decidePartition / decideNPartition over journaled
 * `decision` / `npartition_decision` entries, timing the pure decision
 * functions and checking each replay against the recorded output.
 * Pair records whose rule the controller synthesizes outside the
 * decision step (reject, fallback, resume) are counted, not replayed.
 */
DecideReplay replayDecisions(const std::vector<capart::obs::JournalEntry> &journal,
                             SpanRecorder &spans);

/** Journal entries carried by a ledger's decision records. */
std::vector<capart::obs::JournalEntry>
journalFromLedger(const std::string &ledger_path);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
