#include "perfbench.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/co_scheduler.hh"
#include "core/napp.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "obs/trace.hh"
#include "obs/trace_stitch.hh"
#include "report/report.hh"
#include "workload/catalog.hh"

namespace perfbench
{

using namespace capart;

namespace
{

// The benches' --quick scales: 0.3 x fig13's 0.06 and fig09n's 0.04.
constexpr double kPairScale = 0.06 * 0.3;
constexpr double kPairWindow = 15e-6; // fig13's perf window
constexpr double kNAppScale = 0.04 * 0.3;
constexpr unsigned kNAppCores = 16;
constexpr unsigned kNAppWays = 20;
constexpr unsigned kNAppThreads = 2;

unsigned
fig13Policies()
{
    return exec::policyBit(Policy::Shared) |
           exec::policyBit(Policy::Biased) |
           exec::policyBit(Policy::Dynamic);
}

std::vector<std::string>
representatives()
{
    std::vector<std::string> out;
    for (const auto name : Catalog::clusterRepresentatives())
        out.emplace_back(name);
    return out;
}

std::vector<std::string>
mixNames(std::size_t n)
{
    std::vector<std::string> names;
    for (const AppParams &a : Catalog::nAppMix(n, 0))
        names.push_back(a.name);
    return names;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
putDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a|", v);
    out += buf;
}

void
putUint(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += '|';
}

double
unixMillisNow()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

const std::vector<WorkloadInfo> &
workloadTable()
{
    static const std::vector<WorkloadInfo> table = {
        {Workload::Pairs, "pairs",
         "fig13 pairs on the 4-core 12-way machine, in process, obs off: "
         "the paper's 2-app path, most of it runPair calls inside the "
         "biased search"},
        {Workload::Napp, "napp",
         "8- and 12-app fig09n mixes on the 16-core 20-way machine under "
         "every N-app policy, in process, obs off: many-core LLC, miss "
         "curves, UCP/LFOC"},
        {Workload::SweepShardedObs, "sweep_sharded_obs",
         "cheap fig13 pairs through a 2-shard SweepRunner with ledger, "
         "cache, metrics, trace, attribution and status armed, then the "
         "report render"},
    };
    return table;
}

const char *
workloadName(Workload w)
{
    for (const WorkloadInfo &info : workloadTable()) {
        if (info.id == w)
            return info.name;
    }
    return "?";
}

bool
workloadFromName(const std::string &name, Workload *out)
{
    for (const WorkloadInfo &info : workloadTable()) {
        if (name == info.name) {
            *out = info.id;
            return true;
        }
    }
    return false;
}

std::vector<exec::ExperimentSpec>
workloadSpecs(Workload w)
{
    std::vector<exec::ExperimentSpec> specs;
    const std::vector<std::string> reps = representatives();
    switch (w) {
      case Workload::Pairs:
        // Each representative once as foreground and once as
        // background: one expensive mcf-foreground pair, five cheap.
        for (std::size_t i = 0; i < reps.size(); ++i)
            specs.push_back(exec::consolidationSpec(
                reps[i], reps[(i + reps.size() - 1) % reps.size()],
                fig13Policies(), kPairScale, kPairWindow));
        break;
      case Workload::Napp: {
        unsigned all = 0;
        for (unsigned p = 0; p < kNumNPolicies; ++p)
            all |= npolicyBit(static_cast<NPolicy>(p));
        for (const std::size_t n : {std::size_t{8}, std::size_t{12}})
            specs.push_back(exec::nappSpec(mixNames(n), kNAppCores,
                                           kNAppWays, all, kNAppThreads,
                                           kNAppScale));
        break;
      }
      case Workload::SweepShardedObs:
        // The cheap foregrounds: per-point fixed costs weigh most.
        for (const char *fg : {"ferret", "fop", "dedup", "batik"})
            for (const std::string &bg : reps)
                specs.push_back(exec::consolidationSpec(
                    fg, bg, fig13Policies(), kPairScale, kPairWindow));
        break;
    }
    return specs;
}

const std::vector<MetricName> &
endToEndMetrics()
{
    static const std::vector<MetricName> names = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return names;
}

const std::vector<MetricName> &
perLayerMetrics()
{
    static const std::vector<MetricName> names = {
        {"workload.gen_ns_per_access", "ns"},
        {"workload.accesses", "count"},
        {"mem.ns_per_access.4c", "ns"},
        {"mem.ns_per_access.16c", "ns"},
        {"mem.llc_accesses", "count"},
        {"mem.l1_hit_ratio", "ratio"},
        {"mem.l2_hit_ratio", "ratio"},
        {"mem.llc_hit_ratio", "ratio"},
        {"prefetch.ns_per_observe", "ns"},
        {"prefetch.issued", "count"},
        {"sim.host_ns_per_inst", "ns"},
        {"sim.runs", "count"},
        {"sim.insts_retired", "count"},
        {"sim.llc_accesses", "count"},
        {"sim.dram_lines", "count"},
        {"core.biased_search_share", "ratio"},
        {"core.solo_share", "ratio"},
        {"core.policy_run_share", "ratio"},
        {"core.decide_ns", "ns"},
        {"core.decisions", "count"},
        {"core.remasks", "count"},
        {"core.watchdog_fallbacks", "count"},
        {"core.slo_breaches", "count"},
        {"analysis.profile_share", "ratio"},
        {"analysis.profile_ns_per_ref", "ns"},
        {"exec.point_compute_s", "s"},
        {"exec.supervisor_overhead_s", "s"},
        {"exec.overhead_spawn_s", "s"},
        {"exec.merge_s", "s"},
        {"exec.overhead_stitch_s", "s"},
        {"exec.overhead_rest_s", "s"},
        {"exec.spawns", "count"},
        {"exec.retries", "count"},
        {"exec.quarantined", "count"},
        {"exec.cache_bytes", "bytes"},
        {"obs.inline_overhead_ratio", "ratio"},
        {"obs.ledger_bytes", "bytes"},
        {"obs.attr_bytes", "bytes"},
        {"obs.trace_events", "count"},
        {"obs.trace_dropped", "count"},
        {"obs.export_s", "s"},
        {"report.render_s", "s"},
        {"report.records", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"self_share.sim", "ratio"},
        {"self_share.core", "ratio"},
        {"self_share.exec", "ratio"},
        {"self_share.obs", "ratio"},
        {"self_share.report", "ratio"},
        {"self_share.perfbench", "ratio"},
        {"unattributed_share", "ratio"},
    };
    return names;
}

// ------------------------------------------------------- correctness --

std::string
encodeResult(const exec::SweepResult &r)
{
    std::string out;
    for (const double v : {r.time, r.socketEnergy, r.wallEnergy, r.mpki,
                           r.apki, r.ipc, r.bgThroughput})
        putDouble(out, v);
    putUint(out, r.timedOut);
    for (const exec::PolicyOutcome &p : r.policy) {
        putUint(out, p.present);
        for (const double v : {p.fgSlowdown, p.bgThroughput,
                               p.energyVsSequential,
                               p.wallEnergyVsSequential, p.weightedSpeedup})
            putDouble(out, v);
        putUint(out, p.fgWays);
    }
    for (const exec::NAppPolicyOutcome &p : r.napp) {
        putUint(out, p.present);
        for (const double v : {p.stp, p.throughputIps, p.unfairness,
                               p.fgSlowdown, p.socketEnergyJ, p.wallEnergyJ})
            putDouble(out, v);
        putUint(out, p.sloBreaches);
        putUint(out, p.remasks);
    }
    return out;
}

std::uint64_t
pointDigest(const exec::ExperimentSpec &spec, const exec::SweepResult &r)
{
    return fnv1a(encodeResult(r), fnv1a(spec.canonical() + "|"));
}

std::uint64_t
workloadDigest(const std::vector<std::uint64_t> &points)
{
    std::string all;
    for (const std::uint64_t d : points)
        all += hex64(d);
    return fnv1a(all);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
checkInvariants(const exec::ExperimentSpec &spec, const exec::SweepResult &r,
                std::string *why)
{
    const auto fail = [&](const std::string &msg) {
        *why = msg;
        return false;
    };
    if (r.failed)
        return fail("quarantined");
    if (r.timedOut)
        return fail("timed out");
    for (const double v : {r.time, r.socketEnergy, r.wallEnergy, r.mpki,
                           r.apki, r.ipc, r.bgThroughput}) {
        if (!std::isfinite(v))
            return fail("non-finite top-level value");
    }
    if (spec.kind == exec::SpecKind::Consolidation) {
        for (unsigned p = 0; p < 4; ++p) {
            const exec::PolicyOutcome &o = r.policy[p];
            const bool wanted =
                (spec.policies & exec::policyBit(static_cast<Policy>(p))) != 0;
            if (o.present != wanted)
                return fail(std::string("policy presence: ") +
                            policyName(static_cast<Policy>(p)));
            if (!o.present)
                continue;
            for (const double v : {o.fgSlowdown, o.bgThroughput,
                                   o.energyVsSequential,
                                   o.wallEnergyVsSequential,
                                   o.weightedSpeedup}) {
                if (!std::isfinite(v) || v <= 0.0)
                    return fail(std::string("non-positive figure: ") +
                                policyName(static_cast<Policy>(p)));
            }
            if (o.fgWays < 1 || o.fgWays > 12)
                return fail("fg ways out of range");
        }
    } else if (spec.kind == exec::SpecKind::NApp) {
        const std::size_t apps = exec::splitAppList(spec.napps).size();
        for (unsigned p = 0; p < kNumNPolicies; ++p) {
            const exec::NAppPolicyOutcome &o = r.napp[p];
            const NPolicy np = static_cast<NPolicy>(p);
            if (o.present != ((spec.npolicies & npolicyBit(np)) != 0))
                return fail(std::string("policy presence: ") +
                            npolicyName(np));
            if (!o.present)
                continue;
            for (const double v : {o.stp, o.throughputIps, o.fgSlowdown,
                                   o.socketEnergyJ, o.wallEnergyJ}) {
                if (!std::isfinite(v) || v <= 0.0)
                    return fail(std::string("non-positive figure: ") +
                                npolicyName(np));
            }
            if (!std::isfinite(o.unfairness) || o.unfairness < 1.0)
                return fail("unfairness below 1");
            if (o.sloBreaches > apps)
                return fail("more SLO breaches than apps");
        }
    }
    return true;
}

std::optional<ReferenceTable>
ReferenceTable::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read " + path;
        return std::nullopt;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::optional<Json> doc = Json::parse(ss.str());
    if (!doc || !doc->isObj() || !doc->has("workloads") ||
        !doc->at("workloads").isObj()) {
        *err = path + ": not a reference digest table";
        return std::nullopt;
    }
    ReferenceTable t;
    for (const auto &[workload, seeds] : doc->at("workloads").obj) {
        if (!seeds.isObj())
            continue;
        for (const auto &[seed, digests] : seeds.obj) {
            if (!digests.isArr())
                continue;
            std::vector<std::string> &dst =
                t.table_[workload][std::stoull(seed)];
            for (const Json &d : digests.arr)
                dst.push_back(d.asStr());
        }
    }
    return t;
}

const std::vector<std::string> *
ReferenceTable::find(const std::string &workload, std::uint64_t seed) const
{
    const auto w = table_.find(workload);
    if (w == table_.end())
        return nullptr;
    const auto s = w->second.find(seed);
    return s == w->second.end() ? nullptr : &s->second;
}

std::vector<std::uint64_t>
checkRound(const std::vector<exec::ExperimentSpec> &specs,
           const std::vector<exec::SweepResult> &results,
           const std::vector<std::string> *reference,
           const std::vector<std::uint64_t> *expected, PointTally *tally)
{
    std::vector<std::uint64_t> digests(specs.size(), 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ++tally->attempted;
        std::string why;
        if (i >= results.size()) {
            why = "no result";
        } else {
            digests[i] = pointDigest(specs[i], results[i]);
            if (checkInvariants(specs[i], results[i], &why)) {
                if (reference && (reference->size() != specs.size() ||
                                  (*reference)[i] != hex64(digests[i])))
                    why = "digest differs from the stored reference";
                else if (expected && (*expected)[i] != digests[i])
                    why = "digest differs from this run's first computation";
            }
        }
        if (why.empty())
            continue;
        ++tally->failed;
        if (tally->problems.size() < 8)
            tally->problems.push_back(specs[i].canonical() + ": " + why);
    }
    return digests;
}

// ------------------------------------------------------------ rounds --

std::vector<exec::SweepResult>
runInProcess(const std::vector<exec::ExperimentSpec> &specs,
             std::uint64_t seed, unsigned jobs, obs::RunLedger *ledger,
             std::vector<obs::JournalEntry> *journal)
{
    exec::SweepRunnerOptions o;
    o.jobs = jobs;
    o.baseSeed = seed;
    o.ledger = ledger;
    o.benchName = "perfbench";
    o.runId = "perfbench-" + std::to_string(seed);
    if (journal) {
        // jobs == 1: the callback runs on the thread that computed the
        // point, whose attribution scope holds the point's journal.
        o.progress = [journal](std::size_t, std::size_t) {
            for (obs::JournalEntry &e :
                 obs::timeseries().drainScope().journal) {
                if (e.kind == "decision" || e.kind == "npartition_decision")
                    journal->push_back(std::move(e));
            }
        };
    }
    return exec::SweepRunner(o).run(specs);
}

namespace
{

void
tallyApp(const AppRunStats &a, SimTally *sim)
{
    sim->retired += a.retired;
    sim->llcAccesses += a.llcAccesses;
    sim->dramLines += a.dramReads + a.dramWrites;
}

/** runSpec's Consolidation case, one span per call into a layer. */
exec::SweepResult
tracedConsolidation(const exec::ExperimentSpec &spec, std::uint64_t seed,
                    SpanRecorder &spans, SimTally *sim)
{
    CoScheduleOptions co;
    co.threadsEach = spec.threads;
    co.scale = spec.scale;
    co.system.seed = seed;
    co.monitorSlo = obs::enabled();
    if (spec.perfWindow > 0.0)
        co.system.perfWindow = spec.perfWindow;
    CoScheduler cs(Catalog::byName(spec.fg), Catalog::byName(spec.bg), co);

    using Solo = const SoloResult &(CoScheduler::*)();
    for (const Solo solo : {&CoScheduler::fgSoloHalf,
                            &CoScheduler::fgSoloFull,
                            &CoScheduler::bgSoloFull}) {
        SpanRecorder::Scope span(spans, "sim.runSolo");
        const SoloResult &r = (cs.*solo)();
        sim->hostS += span.elapsed();
        ++sim->runs;
        tallyApp(r.app, sim);
    }
    const Policy order[] = {Policy::Shared, Policy::Fair, Policy::Biased,
                            Policy::Dynamic};
    if (spec.policies & exec::policyBit(Policy::Biased)) {
        SpanRecorder::Scope span(spans, "core.biased");
        sim->runs += cs.biased().sweep.size();
    }
    for (const Policy p : order) {
        if (!(spec.policies & exec::policyBit(p)))
            continue;
        for (const bool continuous : {true, false}) {
            SpanRecorder::Scope span(spans, "sim.runPair");
            const PairResult &r = cs.runPolicy(p, continuous);
            sim->hostS += span.elapsed();
            ++sim->runs;
            tallyApp(r.fg, sim);
            tallyApp(r.bg, sim);
        }
    }

    SpanRecorder::Scope span(spans, "core.summarize");
    exec::SweepResult out;
    for (const Policy p : order) {
        if (!(spec.policies & exec::policyBit(p)))
            continue;
        const ConsolidationSummary s = cs.summarize(p);
        exec::PolicyOutcome &po = out.policy[static_cast<int>(p)];
        po.present = true;
        po.fgSlowdown = s.fgSlowdown;
        po.bgThroughput = s.bgThroughput;
        po.energyVsSequential = s.energyVsSequential;
        po.wallEnergyVsSequential = s.wallEnergyVsSequential;
        po.weightedSpeedup = s.weightedSpeedup;
        po.fgWays = s.fgWays;
    }
    return out;
}

/** runSpec's NApp case, one span per call into a layer. */
exec::SweepResult
tracedNApp(const exec::ExperimentSpec &spec, std::uint64_t seed,
           SpanRecorder &spans, SimTally *sim)
{
    const std::vector<std::string> names = exec::splitAppList(spec.napps);
    NAppStudyOptions so;
    so.run.system = nAppSystem(spec.cores, spec.llcWays, seed);
    so.run.scale = spec.scale;
    if (spec.perfWindow > 0.0)
        so.run.system.perfWindow = spec.perfWindow;
    std::vector<NAppMember> members;
    for (std::size_t i = 0; i < names.size(); ++i) {
        NAppMember m;
        m.params = Catalog::byName(names[i]);
        m.threads = spec.threads;
        m.continuous = i != 0;
        members.push_back(std::move(m));
    }
    NAppStudy study(std::move(members), so);

    for (std::size_t i = 0; i < names.size(); ++i) {
        SpanRecorder::Scope span(spans, "sim.runSolo");
        study.soloIps(i);
        ++sim->runs;
    }
    for (unsigned p = 0; p < kNumNPolicies; ++p) {
        const NPolicy policy = static_cast<NPolicy>(p);
        if (!(spec.npolicies & npolicyBit(policy)))
            continue;
        SpanRecorder::Scope span(spans, "sim.runNApp");
        const NAppRunResult &r = study.runPolicy(policy);
        sim->hostS += span.elapsed();
        ++sim->runs;
        for (const AppRunStats &a : r.apps)
            tallyApp(a, sim);
    }

    SpanRecorder::Scope span(spans, "core.summarize");
    exec::SweepResult out;
    for (unsigned p = 0; p < kNumNPolicies; ++p) {
        const NPolicy policy = static_cast<NPolicy>(p);
        if (!(spec.npolicies & npolicyBit(policy)))
            continue;
        const NAppPolicySummary s = study.summarize(policy);
        exec::NAppPolicyOutcome &po = out.napp[p];
        po.present = true;
        po.stp = s.stp;
        po.throughputIps = s.throughputIps;
        po.unfairness = s.unfairness;
        po.fgSlowdown = s.fgSlowdown;
        po.socketEnergyJ = s.socketEnergyJ;
        po.wallEnergyJ = s.wallEnergyJ;
        po.sloBreaches = s.sloBreaches;
        po.remasks = static_cast<unsigned>(s.remasks);
        out.timedOut = out.timedOut || s.timedOut;
    }
    return out;
}

} // namespace

std::vector<exec::SweepResult>
runTraced(const std::vector<exec::ExperimentSpec> &specs,
          std::uint64_t seed, SpanRecorder &spans, SimTally *sim)
{
    std::vector<exec::SweepResult> out;
    out.reserve(specs.size());
    for (const exec::ExperimentSpec &spec : specs) {
        SpanRecorder::Scope point(spans, "exec.point");
        const std::uint64_t point_seed = mixSeed(seed, spec.hash());
        if (spec.kind == exec::SpecKind::NApp)
            out.push_back(tracedNApp(spec, point_seed, spans, sim));
        else
            out.push_back(tracedConsolidation(spec, point_seed, spans, sim));
    }
    return out;
}

// ----------------------------------------------------- sharded round --

std::string
sweepLedgerPath(const std::string &dir)
{
    return dir + "/ledger.jsonl";
}

std::string
sweepShardDir(const std::string &dir)
{
    return dir + "/shards";
}

std::string
sweepCachePath(const std::string &dir)
{
    return dir + "/results.cache";
}

std::string
sweepAttrDir(const std::string &dir)
{
    return dir + "/attr";
}

std::string
workerMetricsPath(const std::string &dir, unsigned shard)
{
    return dir + "/metrics.json.shard-" + std::to_string(shard);
}

void
armObs()
{
    obs::setEnabled(true);
    obs::timeseries().setPeriod(64);
}

namespace
{

std::string
workerTracePath(const std::string &dir, unsigned shard)
{
    return dir + "/trace.json.shard-" + std::to_string(shard);
}

/** Settings shared by the sharded supervisor and its workers. */
exec::SweepRunnerOptions
sweepOptions(const SweepRoundConfig &cfg)
{
    exec::SweepRunnerOptions o;
    o.baseSeed = cfg.seed;
    o.cachePath = sweepCachePath(cfg.dir);
    o.benchName = workloadName(Workload::SweepShardedObs);
    o.runId = cfg.runId;
    o.attrDir = sweepAttrDir(cfg.dir);
    o.shards = kShards;
    o.ledgerDir = sweepShardDir(cfg.dir);
    return o;
}

void
writeMetricsFile(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (out)
        obs::metrics().writeJson(out);
}

std::string gWorkerMetricsPath;

void
exportWorkerMetrics()
{
    obs::metrics().gauge(kWorkerPeakRssGauge).set(peakRssKib());
    writeMetricsFile(gWorkerMetricsPath);
}

} // namespace

double
peakRssKib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    return 0.0;
}

SweepRoundOutput
runSweepRound(const SweepRoundConfig &cfg,
              const std::vector<exec::ExperimentSpec> &specs,
              SpanRecorder &spans,
              const std::function<void(const std::vector<exec::SweepResult> &)>
                  &verify)
{
    std::filesystem::create_directories(sweepAttrDir(cfg.dir));
    std::filesystem::create_directories(sweepShardDir(cfg.dir));
    obs::metrics().reset();
    obs::tracer().clear();
    armObs();

    SweepRoundOutput out;
    obs::RunLedger ledger(sweepLedgerPath(cfg.dir));
    exec::SweepRunnerOptions o = sweepOptions(cfg);
    o.ledger = &ledger;
    o.statusPath = cfg.dir + "/status.json";
    o.workerCmd = {cfg.selfExe, "--seed",
                   std::to_string(cfg.seed), "--round-dir", cfg.dir,
                   "--run-id", cfg.runId};

    out.dispatchUnixMs = unixMillisNow();
    {
        SpanRecorder::Scope span(spans, "exec.SweepRunner.run");
        out.results = exec::SweepRunner(o).run(specs);
    }
    {
        SpanRecorder::Scope span(spans, "obs.export");
        const std::string trace = cfg.dir + "/trace.json";
        {
            std::ofstream sup(trace + ".supervisor");
            obs::tracer().writeChromeTrace(sup);
        }
        writeMetricsFile(cfg.dir + "/metrics.json");
        std::vector<obs::StitchSource> sources = {
            {trace + ".supervisor", "supervisor"}};
        for (unsigned k = 0; k < kShards; ++k)
            sources.push_back(
                {workerTracePath(cfg.dir, k), "shard " + std::to_string(k)});
        SpanRecorder::Scope stitch(spans, "obs.stitchTraceFiles");
        obs::StitchStats st;
        obs::stitchTraceFiles(sources, trace, &st);
        out.stitchS = stitch.elapsed();
        out.traceEvents = st.events;
        out.traceDropped = st.droppedEvents;
        out.exportS = span.elapsed();
    }
    obs::setEnabled(false);
    {
        SpanRecorder::Scope span(spans, "report.render");
        const std::vector<obs::RunRecord> records =
            obs::RunLedger::load(sweepLedgerPath(cfg.dir)).records;
        const std::vector<report::RunGroup> groups =
            report::groupRuns(records);
        std::ofstream json(cfg.dir + "/bench.json");
        report::writeBenchJson(json, groups);
        std::ofstream md(cfg.dir + "/report.md");
        report::writeMarkdown(md, groups, nullptr, report::GateOptions{});
        out.reportRecords = records.size();
        out.renderS = span.elapsed();
    }
    {
        SpanRecorder::Scope span(spans, "perfbench.verify");
        verify(out.results);
    }
    return out;
}

void
runSweepWorker(const SweepRoundConfig &cfg, unsigned shards, int worker,
               const std::string &ledger_dir)
{
    armObs();
    exec::SweepRunnerOptions o = sweepOptions(cfg);
    o.shards = shards;
    o.shardWorker = worker;
    o.ledgerDir = ledger_dir;
    o.workerTraceOut = workerTracePath(cfg.dir, static_cast<unsigned>(worker));
    // Construct the registry before registering the exporter, so it
    // outlives the atexit handler.
    obs::metrics();
    gWorkerMetricsPath =
        workerMetricsPath(cfg.dir, static_cast<unsigned>(worker));
    std::atexit(exportWorkerMetrics);
    exec::SweepRunner(o).run(workloadSpecs(Workload::SweepShardedObs));
    std::exit(0); // run() exits a worker; this is never reached
}

} // namespace perfbench
