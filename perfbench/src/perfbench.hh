/**
 * @file
 * The repository benchmark: its workloads, the simulated-output
 * digests and invariants that decide whether a point is correct, and
 * the rounds that run a workload's fixed point set through the public
 * src/ entry points.
 *
 * Every simulated run starts with empty modelled caches (no warm-up
 * phase), and every round starts with an empty host-side ResultCache,
 * so a round always computes every point.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/sweep_runner.hh"
#include "obs/timeseries.hh"
#include "spans.hh"

namespace perfbench
{

namespace exec = capart::exec;

enum class Workload
{
    Pairs,
    Napp,
    SweepShardedObs
};

/** A workload's name (as BENCHMARK.json lists it) and why it exists. */
struct WorkloadInfo
{
    Workload id;
    const char *name;
    const char *why;
};

const std::vector<WorkloadInfo> &workloadTable();
const char *workloadName(Workload w);
bool workloadFromName(const std::string &name, Workload *out);

/** The fixed point set one round of @p w computes. */
std::vector<exec::ExperimentSpec> workloadSpecs(Workload w);

/** Worker processes the sharded workload runs. */
inline constexpr unsigned kShards = 2;

/** Every metric name the benchmark can print, with its unit. */
struct MetricName
{
    const char *name;
    const char *unit;
};
const std::vector<MetricName> &endToEndMetrics();
const std::vector<MetricName> &perLayerMetrics();

// ------------------------------------------------------- correctness --

/** Exact text of every SweepResult value field (doubles in hexfloat). */
std::string encodeResult(const exec::SweepResult &r);

/** FNV-1a 64 of the spec's canonical encoding and encodeResult(r). */
std::uint64_t pointDigest(const exec::ExperimentSpec &spec,
                          const exec::SweepResult &r);

/** FNV-1a 64 over a round's point digests, in spec order. */
std::uint64_t workloadDigest(const std::vector<std::uint64_t> &points);

/** "0x" + 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/**
 * Seed-independent sanity of one result: every value finite, no
 * timeout or quarantine, exactly the requested policies present, and
 * each present policy's figures in range. False with @p why set
 * otherwise.
 */
bool checkInvariants(const exec::ExperimentSpec &spec,
                     const exec::SweepResult &r, std::string *why);

/** Stored point digests per (workload, seed). */
class ReferenceTable
{
  public:
    /** Parse @p path; nullopt with @p err set when unreadable. */
    static std::optional<ReferenceTable> load(const std::string &path,
                                              std::string *err);

    /** The stored point digests, or nullptr for a held-out seed. */
    const std::vector<std::string> *find(const std::string &workload,
                                         std::uint64_t seed) const;

  private:
    std::map<std::string, std::map<std::uint64_t, std::vector<std::string>>>
        table_;
};

/** Points checked and points failed, over a whole run. */
struct PointTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed point (first few only). */
    std::vector<std::string> problems;
};

/**
 * Check one round. A point fails when its invariants do not hold, when
 * its digest differs from @p reference (the stored digests for this
 * seed, if any), or when it differs from @p expected (the same point
 * computed earlier in this run, if given). Returns the point digests.
 */
std::vector<std::uint64_t>
checkRound(const std::vector<exec::ExperimentSpec> &specs,
           const std::vector<exec::SweepResult> &results,
           const std::vector<std::string> *reference,
           const std::vector<std::uint64_t> *expected, PointTally *tally);

// ------------------------------------------------------------ rounds --

/** Counters of the simulated runs a traced round wrapped in spans. */
struct SimTally
{
    std::uint64_t runs = 0;
    std::uint64_t retired = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t dramLines = 0;
    /** Host seconds of the runs whose retired count is known. */
    double hostS = 0.0;
};

/**
 * Run @p specs in process through SweepRunner with @p jobs threads, no
 * result cache, and optionally a ledger. With @p journal non-null (and
 * jobs == 1) each point's control-plane journal is drained into it.
 */
std::vector<exec::SweepResult>
runInProcess(const std::vector<exec::ExperimentSpec> &specs,
             std::uint64_t seed, unsigned jobs,
             capart::obs::RunLedger *ledger = nullptr,
             std::vector<capart::obs::JournalEntry> *journal = nullptr);

/**
 * Run @p specs (Consolidation or NApp) point by point through the
 * public CoScheduler / NAppStudy calls runSpec makes, with a span
 * around each call into a layer. Results equal runSpec's bit for bit
 * (the digests check it).
 */
std::vector<exec::SweepResult>
runTraced(const std::vector<exec::ExperimentSpec> &specs,
          std::uint64_t seed, SpanRecorder &spans, SimTally *sim);

/** Where and how one sharded round runs. */
struct SweepRoundConfig
{
    /** This binary, re-executed as the shard workers. */
    std::string selfExe;
    std::uint64_t seed = 0;
    /** Fresh directory owned by the round. */
    std::string dir;
    std::string runId;
};

/** What one sharded round produced besides its results. */
struct SweepRoundOutput
{
    std::vector<exec::SweepResult> results;
    /** Unix ms when the sweep was dispatched (workers spawn then). */
    double dispatchUnixMs = 0.0;
    double exportS = 0.0;
    double stitchS = 0.0;
    double renderS = 0.0;
    std::uint64_t reportRecords = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
};

/**
 * Turn observability recording on the way the obs-armed rounds run it:
 * metrics, trace, journal, and attribution sampling every 64 quanta.
 */
void armObs();

/** Paths inside a sharded round's directory. */
std::string sweepLedgerPath(const std::string &dir);
std::string sweepShardDir(const std::string &dir);
std::string sweepCachePath(const std::string &dir);
std::string sweepAttrDir(const std::string &dir);
std::string workerMetricsPath(const std::string &dir, unsigned shard);

/**
 * One round of sweep_sharded_obs: the sharded sweep with ledger,
 * result cache, metrics, trace, attribution side files and status
 * file armed; then the trace export and stitch; then the report render
 * of the ledger written. @p verify runs last, inside the round.
 */
SweepRoundOutput runSweepRound(
    const SweepRoundConfig &cfg,
    const std::vector<exec::ExperimentSpec> &specs, SpanRecorder &spans,
    const std::function<void(const std::vector<exec::SweepResult> &)>
        &verify);

/**
 * Peak resident memory of this process image in KiB (VmHWM). Unlike
 * getrusage's ru_maxrss it does not inherit the peak of the image a
 * process was exec'd from.
 */
double peakRssKib();

/** Name of the gauge in which a worker's metrics file carries its
 *  peakRssKib(). */
inline constexpr const char *kWorkerPeakRssGauge = "perfbench.peak_rss_kib";

/** Shard-worker entry (argv carried --shard-worker=k); never returns. */
[[noreturn]] void runSweepWorker(const SweepRoundConfig &cfg,
                                 unsigned shards, int worker,
                                 const std::string &ledger_dir);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
