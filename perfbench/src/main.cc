/**
 * @file
 * perfbench: runs one workload of the repository benchmark and
 * prints its metrics, ending with one JSON line:
 *
 *   perfbench --workload <pairs|napp|sweep_sharded_obs>
 *             --seed N --seconds S --trace <0|1>
 *             [--reference FILE] [--run-root DIR]
 *
 * --trace 0 repeats the workload's fixed point set (a round) until S
 * seconds have passed and at least three rounds ran, and reports the
 * end-to-end metrics: the median round wall time, the median set-up
 * time, and the peak resident memory. --trace 1 runs one plain round,
 * one round with a span around each call into a src/ layer, and the
 * layer replays, and reports the per-layer metrics. Every round's
 * results are checked (see perfbench.hh); --print-digests instead
 * prints one round's point digests for the reference table.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "core/napp.hh"
#include "exec/shard_supervisor.hh"
#include "layers.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "obs/trace.hh"
#include "perfbench.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

using namespace perfbench;
namespace fs = std::filesystem;
namespace obs = capart::obs;

namespace
{

/** Rounds a --trace 0 run makes at least, whatever --seconds says. */
constexpr unsigned kMinRounds = 3;
/** Set-up repetitions; setup_s is their median. */
constexpr unsigned kSetupReps = 51;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string reference = "perfbench/reference/digests.json";
    std::string runRoot = ".bench_runs";
    bool printDigests = false;
    // Shard-worker re-execution (set by runSweepRound / the supervisor).
    std::string roundDir;
    std::string runId;
    unsigned shards = 0;
    int shardWorker = -1;
    std::string ledgerDir;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <name> --seed N "
                 "--seconds S --trace <0|1> [--reference FILE] "
                 "[--run-root DIR] [--print-digests]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    const auto number = [](const std::string &key, const std::string &v) {
        try {
            std::size_t used = 0;
            const double d = std::stod(v, &used);
            if (used == v.size())
                return d;
        } catch (const std::exception &) {
        }
        usage("bad value for " + key + ": " + v);
    };
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const std::size_t eq = key.find('=');
        const bool flag = key == "--print-digests";
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (!flag) {
            if (i + 1 >= argc)
                usage("missing value for " + key);
            value = argv[++i];
        }
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            if (value.empty() ||
                value.find_first_not_of("0123456789") != std::string::npos)
                usage("bad value for --seed: " + value);
            a.seed = std::stoull(value);
        } else if (key == "--seconds") {
            a.seconds = number(key, value);
        } else if (key == "--trace") {
            a.trace = static_cast<int>(number(key, value));
            if (a.trace != 0 && a.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (key == "--reference") {
            a.reference = value;
        } else if (key == "--run-root") {
            a.runRoot = value;
        } else if (key == "--print-digests") {
            a.printDigests = true;
        } else if (key == "--round-dir") {
            a.roundDir = value;
        } else if (key == "--run-id") {
            a.runId = value;
        } else if (key == "--shards") {
            a.shards = static_cast<unsigned>(number(key, value));
        } else if (key == "--shard-worker") {
            a.shardWorker = static_cast<int>(number(key, value));
        } else if (key == "--ledger-dir") {
            a.ledgerDir = value;
        } else {
            usage("unknown argument " + key);
        }
    }
    return a;
}

std::string
selfExe()
{
    std::error_code ec;
    const fs::path p = fs::read_symlink("/proc/self/exe", ec);
    return ec ? std::string() : p.string();
}

unsigned
hostCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : n;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        n += fileBytes(e.path().string());
    return n;
}

/** The modelled machine a workload simulates. */
capart::SystemConfig
machineOf(Workload w, std::uint64_t seed)
{
    if (w == Workload::Napp)
        return capart::nAppSystem(16, 20, seed);
    capart::SystemConfig cfg;
    cfg.seed = seed;
    return cfg;
}

/** Distinct catalog apps the workload's specs run, in first-use order. */
std::vector<capart::AppParams>
appsOf(const std::vector<exec::ExperimentSpec> &specs)
{
    std::vector<std::string> names;
    for (const exec::ExperimentSpec &s : specs) {
        const std::vector<std::string> these =
            s.kind == exec::SpecKind::NApp
                ? exec::splitAppList(s.napps)
                : std::vector<std::string>{s.fg, s.bg};
        for (const std::string &n : these) {
            if (std::find(names.begin(), names.end(), n) == names.end())
                names.push_back(n);
        }
    }
    std::vector<capart::AppParams> apps;
    for (const std::string &n : names)
        apps.push_back(capart::Catalog::byName(n));
    return apps;
}

struct Setup
{
    std::optional<ReferenceTable> reference;
    std::vector<exec::ExperimentSpec> specs;
    std::string runDir;
};

/**
 * Everything before the first point is dispatched: load the reference
 * digests, build the point set, resolve and validate every app, build
 * the modelled machine once (empty caches), and create the run's
 * directory afresh.
 */
Setup
setUp(const Args &args, Workload w)
{
    Setup s;
    std::string err;
    s.reference = ReferenceTable::load(args.reference, &err);
    if (!s.reference)
        usage(err);
    s.specs = workloadSpecs(w);
    for (const capart::AppParams &app : appsOf(s.specs))
        app.validate();
    {
        capart::System machine(machineOf(w, args.seed));
    }
    s.runDir = args.runRoot + "/" + args.workload + "-" +
               std::to_string(args.seed) + "-" + std::to_string(getpid());
    fs::remove_all(s.runDir);
    fs::create_directories(s.runDir);
    return s;
}

/**
 * Read the shard workers' metrics files of the sharded round in
 * @p dir: their counters are summed into @p counters (when non-null)
 * and the largest worker peak RSS (KiB) is returned.
 */
double
readWorkerMetrics(const std::string &dir,
                  std::map<std::string, double> *counters)
{
    double peak_kib = 0.0;
    for (unsigned k = 0; k < kShards; ++k) {
        std::ifstream in(workerMetricsPath(dir, k));
        std::stringstream ss;
        ss << in.rdbuf();
        const std::optional<capart::Json> doc =
            capart::Json::parse(ss.str());
        if (!doc || !doc->isObj())
            continue;
        if (doc->has("gauges") && doc->at("gauges").has(kWorkerPeakRssGauge))
            peak_kib = std::max(
                peak_kib, doc->at("gauges").at(kWorkerPeakRssGauge).asNum());
        if (counters && doc->has("counters")) {
            for (const auto &[name, v] : doc->at("counters").obj)
                (*counters)[name] += v.asNum();
        }
    }
    return peak_kib;
}

/**
 * The exec/obs/report metrics of the traced sharded round in @p dir,
 * which took @p traced_s; @p inproc_compute_s is the obs-off,
 * in-process compute time of the same specs.
 */
void
shardedRoundMetrics(const std::string &dir, const SweepRoundOutput &round,
                    double traced_s, double inproc_compute_s,
                    const std::vector<exec::ExperimentSpec> &specs,
                    std::uint64_t seed, std::map<std::string, double> *out)
{
    std::map<std::string, double> &m = *out;
    double compute_s = 0.0;
    double spawns = 0, retries = 0, quarantined = 0;
    for (const obs::RunRecord &rec :
         obs::RunLedger::load(sweepLedgerPath(dir)).records) {
        if (rec.kind == "point")
            compute_s += rec.wallMs / 1e3;
        if (rec.kind == "shard") {
            spawns += rec.metric("spawns");
            retries += rec.metric("retries");
            quarantined += rec.metric("points_quarantined");
        }
    }
    // Spawn cost: dispatch to each shard's first point_start.
    std::vector<std::string> segments;
    double spawn_s = 0.0;
    for (unsigned k = 0; k < kShards; ++k) {
        segments.push_back(exec::shardSegmentPath(
            sweepShardDir(dir), workloadName(Workload::SweepShardedObs), k));
        double first_ms = 0.0;
        for (const obs::RunRecord &rec :
             obs::RunLedger::load(segments.back()).records) {
            if (rec.kind == "point_start" &&
                (first_ms == 0.0 || rec.tsMs < first_ms))
                first_ms = rec.tsMs;
        }
        if (first_ms > 0.0)
            spawn_s += (first_ms - round.dispatchUnixMs) / 1e3;
    }
    spawn_s /= kShards;
    // The merge runs inside the supervisor; re-time it on the leftovers
    // with the options the supervisor used.
    obs::MergeOptions mo;
    mo.filterSeed = true;
    mo.expectedSeed = seed;
    for (const exec::ExperimentSpec &s : specs)
        mo.specFilter.push_back(s.hash());
    const auto merge_start = Clock::now();
    obs::mergeLedgerSegments(segments, mo);
    const double merge_s = seconds(merge_start, Clock::now());

    const double overhead = traced_s - compute_s / kShards;
    m["exec.point_compute_s"] = compute_s;
    m["exec.supervisor_overhead_s"] = overhead;
    m["exec.overhead_spawn_s"] = spawn_s;
    m["exec.merge_s"] = merge_s;
    m["exec.overhead_stitch_s"] = round.stitchS;
    m["exec.overhead_rest_s"] = overhead - spawn_s - merge_s - round.stitchS;
    m["exec.spawns"] = spawns;
    m["exec.retries"] = retries;
    m["exec.quarantined"] = quarantined;
    m["exec.cache_bytes"] = static_cast<double>(fileBytes(sweepCachePath(dir)));
    m["obs.inline_overhead_ratio"] =
        inproc_compute_s > 0.0 ? compute_s / inproc_compute_s : 0.0;
    m["obs.ledger_bytes"] = static_cast<double>(fileBytes(sweepLedgerPath(dir)));
    m["obs.attr_bytes"] = static_cast<double>(dirBytes(sweepAttrDir(dir)));
    m["obs.trace_events"] = static_cast<double>(round.traceEvents);
    m["obs.trace_dropped"] = static_cast<double>(round.traceDropped);
    m["obs.export_s"] = round.exportS;
    m["report.render_s"] = round.renderS;
    m["report.records"] = static_cast<double>(round.reportRecords);
}

struct Output
{
    std::map<std::string, double> metrics;
    PointTally tally;
    std::uint64_t decideMismatches = 0;
    std::string digest;
    bool referenceKnown = false;
};

/** Run the workload and fill @p out. */
void
measure(const Args &args, Workload w, Output *out)
{
    std::vector<double> setups;
    Setup setup;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        setup = setUp(args, w);
        setups.push_back(seconds(t0, Clock::now()));
    }
    const std::vector<exec::ExperimentSpec> &specs = setup.specs;
    const std::vector<std::string> *reference =
        setup.reference->find(args.workload, args.seed);
    out->referenceKnown = reference != nullptr;
    std::map<std::string, double> &m = out->metrics;
    PointTally &tally = out->tally;
    const bool sweep = w == Workload::SweepShardedObs;

    std::vector<std::uint64_t> expected;
    bool have_expected = false;
    double inproc_compute_s = 0.0;
    if (sweep) {
        // The in-process computation of the same specs (obs off, as many
        // threads as shards) the sharded results must equal bit for bit.
        obs::RunLedger ledger(setup.runDir + "/inprocess.jsonl");
        const auto res = runInProcess(specs, args.seed, kShards, &ledger);
        expected = checkRound(specs, res, reference, nullptr, &tally);
        have_expected = true;
        for (const obs::RunRecord &rec :
             obs::RunLedger::load(ledger.path()).records)
            inproc_compute_s += rec.kind == "point" ? rec.wallMs / 1e3 : 0.0;
    }

    const auto verify = [&](const std::vector<exec::SweepResult> &res) {
        const std::vector<std::uint64_t> d = checkRound(
            specs, res, reference, have_expected ? &expected : nullptr,
            &tally);
        if (!have_expected) {
            expected = d;
            have_expected = true;
        }
    };
    unsigned round = 0;
    SweepRoundOutput last_sweep;
    const auto run_round = [&](SpanRecorder &spans) {
        const auto t0 = Clock::now();
        if (sweep) {
            SweepRoundConfig cfg;
            cfg.selfExe = selfExe();
            cfg.seed = args.seed;
            cfg.dir = setup.runDir + "/round-" + std::to_string(round);
            cfg.runId = "perfbench-" + std::to_string(args.seed) + "-" +
                        std::to_string(round);
            last_sweep = runSweepRound(cfg, specs, spans, verify);
        } else {
            verify(runInProcess(specs, args.seed, 1));
        }
        ++round;
        return seconds(t0, Clock::now());
    };

    SpanRecorder off(false);
    if (args.trace == 0) {
        std::vector<double> walls;
        double worker_peak_kib = 0.0;
        const auto start = Clock::now();
        while (walls.size() < kMinRounds ||
               seconds(start, Clock::now()) < args.seconds) {
            walls.push_back(run_round(off));
            if (sweep) {
                const std::string dir =
                    setup.runDir + "/round-" + std::to_string(round - 1);
                worker_peak_kib = std::max(worker_peak_kib,
                                           readWorkerMetrics(dir, nullptr));
                fs::remove_all(dir);
            }
        }
        std::cout << "round-walls-s";
        for (const double s : walls)
            std::cout << " " << s;
        std::cout << "\nsetup-reps-s";
        for (const double s : setups)
            std::cout << " " << s;
        std::cout << "\n";
        m["wall_s"] = median(walls);
        m["setup_s"] = median(setups);
        m["peak_rss_mb"] = std::max(peakRssKib(), worker_peak_kib) / 1024.0;
        out->digest = hex64(workloadDigest(expected));
        fs::remove_all(setup.runDir);
        return;
    }

    // ---- traced run: plain round, traced round, obs round, replays ----
    const double plain_s = run_round(off);
    if (sweep)
        fs::remove_all(setup.runDir + "/round-0");
    SpanRecorder spans(true);
    SimTally sim;
    double traced_s = 0.0;
    std::vector<exec::SweepResult> traced_res;
    if (sweep) {
        traced_s = run_round(spans);
    } else {
        const auto t0 = Clock::now();
        traced_res = runTraced(specs, args.seed, spans, &sim);
        {
            SpanRecorder::Scope span(spans, "perfbench.verify");
            verify(traced_res);
        }
        traced_s = seconds(t0, Clock::now());
    }
    double attributed = 0.0;
    for (const auto &[layer, self_s] : spans.selfByLayer()) {
        m["self_share." + layer] = self_s / traced_s;
        attributed += self_s;
    }
    m["unattributed_share"] = std::max(0.0, 1.0 - attributed / traced_s);
    m["trace.overhead_ratio"] = traced_s / plain_s;
    m["core.biased_search_share"] = spans.total("core.biased") / traced_s;
    m["core.solo_share"] = spans.total("sim.runSolo") / traced_s;
    m["core.policy_run_share"] =
        (spans.total("sim.runPair") + spans.total("sim.runNApp")) / traced_s;
    m["sim.runs"] = static_cast<double>(sim.runs);
    m["sim.insts_retired"] = static_cast<double>(sim.retired);
    m["sim.llc_accesses"] = static_cast<double>(sim.llcAccesses);
    m["sim.dram_lines"] = static_cast<double>(sim.dramLines);
    m["sim.host_ns_per_inst"] =
        sim.retired ? sim.hostS * 1e9 / static_cast<double>(sim.retired)
                    : 0.0;

    std::map<std::string, double> counters;
    std::vector<obs::JournalEntry> journal;
    if (sweep) {
        const std::string dir =
            setup.runDir + "/round-" + std::to_string(round - 1);
        readWorkerMetrics(dir, &counters);
        journal = journalFromLedger(sweepLedgerPath(dir));
        shardedRoundMetrics(dir, last_sweep, traced_s, inproc_compute_s,
                            specs, args.seed, &m);
    } else {
        // The same round with observability armed: the inline cost of
        // recording, plus the journal and counters the replays read.
        obs::metrics().reset();
        obs::tracer().clear();
        armObs();
        const auto t0 = Clock::now();
        verify(runInProcess(specs, args.seed, 1, nullptr, &journal));
        m["obs.inline_overhead_ratio"] = seconds(t0, Clock::now()) / plain_s;
        obs::setEnabled(false);
        for (const auto &[name, v] : obs::metrics().counterSnapshot())
            counters[name] += v;
        m["obs.trace_events"] =
            static_cast<double>(obs::tracer().eventCount());
        m["obs.trace_dropped"] = static_cast<double>(obs::tracer().dropped());
    }
    double napp_breaches = 0.0;
    for (const exec::SweepResult &r : traced_res)
        for (const exec::NAppPolicyOutcome &p : r.napp)
            napp_breaches += p.present ? p.sloBreaches : 0;
    m["core.remasks"] = counters["partitioner.remask_attempts"];
    m["core.watchdog_fallbacks"] = counters["partitioner.watchdog_fallbacks"];
    m["core.slo_breaches"] = counters["slo.breaches"] + napp_breaches;

    const double scale = specs.front().scale;
    const StreamReplay sr = replayStreams(
        appsOf(specs), machineOf(w, args.seed), scale, args.seed, spans);
    m["workload.gen_ns_per_access"] = sr.genNsPerAccess;
    m["workload.accesses"] = static_cast<double>(sr.accesses);
    m[w == Workload::Napp ? "mem.ns_per_access.16c"
                          : "mem.ns_per_access.4c"] = sr.memNsPerOp;
    m["mem.llc_accesses"] = static_cast<double>(sr.llcAccesses);
    m["mem.l1_hit_ratio"] = sr.l1HitRatio;
    m["mem.l2_hit_ratio"] = sr.l2HitRatio;
    m["mem.llc_hit_ratio"] = sr.llcHitRatio;
    m["prefetch.ns_per_observe"] = sr.prefetchNsPerObserve;
    m["prefetch.issued"] = static_cast<double>(sr.prefetchIssued);
    const ProfileReplay pr = replayProfiles(specs, args.seed, spans);
    m["analysis.profile_share"] = pr.roundS / traced_s;
    m["analysis.profile_ns_per_ref"] = pr.nsPerRef;
    const DecideReplay dr = replayDecisions(journal, spans);
    m["core.decide_ns"] = dr.nsPerDecide;
    m["core.decisions"] = static_cast<double>(dr.decisions);
    out->decideMismatches = dr.mismatches;
    out->digest = hex64(workloadDigest(expected));

    spans.writeChromeTrace(args.runRoot + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json");
    fs::remove_all(setup.runDir);
}

void
printDigests(const Args &args, Workload w)
{
    const std::vector<exec::ExperimentSpec> specs = workloadSpecs(w);
    const auto res = runInProcess(specs, args.seed, 1);
    PointTally tally;
    const auto d = checkRound(specs, res, nullptr, nullptr, &tally);
    if (tally.failed != 0) {
        for (const std::string &p : tally.problems)
            std::cerr << "perfbench: " << p << "\n";
        std::exit(1);
    }
    std::cout << "{\"workload\":\"" << args.workload
              << "\",\"seed\":" << args.seed << ",\"digests\":[";
    for (std::size_t i = 0; i < d.size(); ++i)
        std::cout << (i ? "," : "") << "\"" << hex64(d[i]) << "\"";
    std::cout << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.shardWorker >= 0) {
        SweepRoundConfig cfg;
        cfg.selfExe = selfExe();
        cfg.seed = args.seed;
        cfg.dir = args.roundDir;
        cfg.runId = args.runId;
        runSweepWorker(cfg, args.shards, args.shardWorker, args.ledgerDir);
    }
    Workload w;
    if (!workloadFromName(args.workload, &w))
        usage("unknown workload '" + args.workload + "'");

    // Fingerprint: refuse builds whose numbers would mislead.
    const std::string build = PERFBENCH_BUILD_TYPE;
    const unsigned nproc = hostCpus();
    std::cout << "fingerprint nproc=" << nproc << " cpu=\"" << cpuModel()
              << "\" compiler=\"" << PERFBENCH_COMPILER << "\" build=" << build
              << " CAPART_OBS=" << (obs::kCompiledIn ? "ON" : "OFF") << "\n";
    if (build != "Release" || !obs::kCompiledIn) {
        std::cerr << "perfbench: refusing to measure a " << build
                  << " build with CAPART_OBS="
                  << (obs::kCompiledIn ? "ON" : "OFF")
                  << "; rebuild as Release with CAPART_OBS=ON\n";
        return 3;
    }
    if (w == Workload::SweepShardedObs && nproc < kShards) {
        std::cerr << "perfbench: needs at least " << kShards
                  << " CPUs (host has " << nproc << ")\n";
        return 3;
    }
    if (args.printDigests) {
        printDigests(args, w);
        return 0;
    }

    Output out;
    measure(args, w, &out);
    const bool correct = out.tally.failed == 0 && out.decideMismatches == 0;
    for (const std::string &p : out.tally.problems)
        std::cout << "failed-point " << p << "\n";
    if (out.decideMismatches)
        std::cout << "decision-replay mismatches " << out.decideMismatches
                  << "\n";
    std::cout << "caches: every simulated run starts with empty modelled "
                 "caches (no warm-up); the host ResultCache starts empty "
                 "every round\n"
              << "digest " << out.digest << " reference="
              << (out.referenceKnown ? "stored" : "held-out-seed") << "\n";

    const std::vector<MetricName> &names =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    const double failed_ratio =
        static_cast<double>(out.tally.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, out.tally.attempted));
    for (const MetricName &n : names) {
        std::cout << "metric " << n.name << " ";
        capart::jsonWriteNumber(std::cout, out.metrics[n.name]);
        std::cout << " " << n.unit << "\n";
    }
    std::cout << "metric failed_point_ratio " << failed_ratio << " ratio\n";

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.tally.attempted
       << ", \"failed\": " << out.tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
        js << (i ? ", " : "") << "\"" << names[i].name << "\": {\"value\": ";
        capart::jsonWriteNumber(js, out.metrics[names[i].name]);
        js << ", \"unit\": \"" << names[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
