#include "layers.hh"

#include <algorithm>

#include "common/rng.hh"
#include "core/decision_journal.hh"
#include "core/napp.hh"
#include "core/npartition_journal.hh"
#include "mem/hierarchy.hh"
#include "obs/run_ledger.hh"
#include "prefetch/prefetchers.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace capart;

namespace
{

/** Accesses generated per app: enough to leave every cache level's
 *  behaviour visible, small enough to keep the replay under a second. */
constexpr std::size_t kAccessesPerApp = 60'000;
/** Accesses of one app replayed before the next app's turn. */
constexpr std::size_t kInterleave = 256;
/** Decision replays are repeated until at least this many calls. */
constexpr std::uint64_t kMinDecideCalls = 20'000;

double
nsPer(double s, std::uint64_t n)
{
    return n ? s * 1e9 / static_cast<double>(n) : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** (app, index) pairs in interleaved replay order, cached accesses only. */
std::vector<std::pair<std::size_t, std::size_t>>
replayOrder(const std::vector<std::vector<MemAccess>> &streams)
{
    std::vector<std::pair<std::size_t, std::size_t>> order;
    std::size_t longest = 0;
    for (const auto &s : streams)
        longest = std::max(longest, s.size());
    for (std::size_t base = 0; base < longest; base += kInterleave) {
        for (std::size_t a = 0; a < streams.size(); ++a) {
            const std::size_t end =
                std::min(base + kInterleave, streams[a].size());
            for (std::size_t i = base; i < end; ++i) {
                if (!streams[a][i].uncached)
                    order.emplace_back(a, i);
            }
        }
    }
    return order;
}

/** Rules decidePartition itself emits; the controller synthesizes the
 *  others (reject/fallback/resume), whose records are not replayable. */
bool
replayable(DecisionRule r)
{
    switch (r) {
      case DecisionRule::Hold:
      case DecisionRule::PhaseStartMax:
      case DecisionRule::ProbeShrink:
      case DecisionRule::SettleBack:
      case DecisionRule::SettleFloor:
      case DecisionRule::Retry:
        return true;
      default:
        return false;
    }
}

} // namespace

StreamReplay
replayStreams(const std::vector<AppParams> &apps, const SystemConfig &system,
              double scale, std::uint64_t seed, SpanRecorder &spans)
{
    StreamReplay out;
    std::vector<std::vector<MemAccess>> streams(apps.size());
    {
        SpanRecorder::Scope span(spans, "workload.runQuantum");
        for (std::size_t a = 0; a < apps.size(); ++a) {
            ThreadWorkload thread(apps[a].scaled(scale), 0, 1,
                                  kAppAddressStride * (a + 1),
                                  mixSeed(seed, a));
            std::vector<MemAccess> &buf = streams[a];
            buf.reserve(kAccessesPerApp + 4096);
            const double total = static_cast<double>(thread.totalWork());
            while (!thread.done() && buf.size() < kAccessesPerApp) {
                const double progress =
                    total > 0 ? static_cast<double>(thread.retired()) / total
                              : 1.0;
                if (thread.runQuantum(system.quantumInsts, progress, buf) ==
                    0)
                    break;
            }
            out.accesses += buf.size();
        }
        out.genNsPerAccess = nsPer(span.elapsed(), out.accesses);
    }

    const auto order = replayOrder(streams);
    const unsigned cores = system.numCores;
    const unsigned slots = std::max(1u, system.hierarchy.llc.partitionSlots);
    const auto coreOf = [&](std::size_t a) {
        return static_cast<CoreId>(a % cores);
    };

    // Which demand accesses miss the L1: the prefetchers' training input.
    std::vector<char> missedL1(order.size());
    {
        CacheHierarchy h(system.hierarchy, cores, seed);
        for (std::size_t k = 0; k < order.size(); ++k) {
            const auto [a, i] = order[k];
            const MemAccess &m = streams[a][i];
            missedL1[k] =
                h.access(coreOf(a), a % slots, m.addr, m.write).servedBy !=
                ServiceLevel::L1;
        }
    }

    // Prefetch requests of each access, flattened: reqs[first[k]..first[k+1]).
    std::vector<PrefetchRequest> reqs;
    std::vector<std::size_t> first(order.size() + 1, 0);
    {
        std::vector<PrefetcherBank> banks(
            cores, PrefetcherBank(PrefetchConfig::allEnabled(true)));
        SpanRecorder::Scope span(spans, "prefetch.observe");
        for (std::size_t k = 0; k < order.size(); ++k) {
            const auto [a, i] = order[k];
            const MemAccess &m = streams[a][i];
            first[k] = reqs.size();
            banks[coreOf(a)].observe(m.pc, lineAddr(m.addr), missedL1[k] != 0,
                                     reqs);
        }
        first[order.size()] = reqs.size();
        out.prefetchNsPerObserve = nsPer(span.elapsed(), order.size());
        out.prefetchIssued = reqs.size();
    }

    std::uint64_t served[4] = {};
    {
        CacheHierarchy h(system.hierarchy, cores, seed);
        SpanRecorder::Scope span(spans, "mem.access");
        for (std::size_t k = 0; k < order.size(); ++k) {
            const auto [a, i] = order[k];
            const MemAccess &m = streams[a][i];
            const CoreId core = coreOf(a);
            const HierarchyOutcome o = h.access(core, a % slots, m.addr,
                                                m.write);
            ++served[static_cast<int>(o.servedBy)];
            out.llcAccesses += o.llcAccess;
            for (std::size_t r = first[k]; r < first[k + 1]; ++r) {
                const HierarchyOutcome p =
                    reqs[r].intoL1
                        ? h.prefetchIntoL1(core, a % slots, reqs[r].line)
                        : h.prefetchIntoL2(core, a % slots, reqs[r].line);
                out.llcAccesses += p.llcAccess;
            }
        }
        out.memNsPerOp = nsPer(span.elapsed(), order.size() + reqs.size());
    }
    const std::uint64_t l1 = served[0], l2 = served[1], llc = served[2],
                        mem = served[3];
    out.l1HitRatio = ratio(l1, l1 + l2 + llc + mem);
    out.l2HitRatio = ratio(l2, l2 + llc + mem);
    out.llcHitRatio = ratio(llc, llc + mem);
    return out;
}

ProfileReplay
replayProfiles(const std::vector<exec::ExperimentSpec> &specs,
               std::uint64_t seed, SpanRecorder &spans)
{
    ProfileReplay out;
    std::uint64_t refs = 0;
    double total_s = 0.0;
    for (const exec::ExperimentSpec &spec : specs) {
        if (spec.kind != exec::SpecKind::NApp)
            continue;
        const unsigned profiling =
            ((spec.npolicies & npolicyBit(NPolicy::Ucp)) != 0) +
            ((spec.npolicies & npolicyBit(NPolicy::Lfoc)) != 0);
        if (profiling == 0)
            continue;
        const SystemConfig system = nAppSystem(
            spec.cores, spec.llcWays, mixSeed(seed, spec.hash()));
        for (const std::string &name : exec::splitAppList(spec.napps)) {
            SpanRecorder::Scope span(spans, "analysis.profileMissCurve");
            const MissCurve mc =
                profileMissCurve(Catalog::byName(name), system, spec.scale,
                                 NAppOptions{}.profileAccesses);
            const double s = span.elapsed();
            total_s += s;
            out.roundS += s * profiling;
            refs += mc.accesses;
            ++out.calls;
        }
    }
    out.nsPerRef = nsPer(total_s, refs);
    return out;
}

DecideReplay
replayDecisions(const std::vector<obs::JournalEntry> &journal,
                SpanRecorder &spans)
{
    DecideReplay out;
    out.decisions = journal.size();

    // Check every replayable record once against its recorded output.
    std::vector<DecisionInputs> pair_in;
    std::vector<NPartitionInputs> napp_in;
    for (const obs::JournalEntry &e : journal) {
        if (e.kind == "decision") {
            DecisionRule rule;
            if (!decisionRuleFromName(e.rule, &rule)) {
                ++out.mismatches;
                continue;
            }
            if (!replayable(rule))
                continue;
            const Decision want = decisionFromEntry(e);
            pair_in.push_back(decisionInputsFromEntry(e));
            const Decision got = decidePartition(pair_in.back());
            out.mismatches += got.rule != want.rule ||
                              got.targetFgWays != want.targetFgWays ||
                              got.probingAfter != want.probingAfter;
        } else {
            napp_in.push_back(npartitionInputsFromEntry(e));
            out.mismatches += decideNPartition(napp_in.back()).masks !=
                              npartitionDecisionFromEntry(e).masks;
        }
    }
    const std::uint64_t calls = pair_in.size() + napp_in.size();
    if (calls == 0)
        return out;

    // Time the pure decision functions alone, on decoded inputs.
    const std::uint64_t reps =
        std::max<std::uint64_t>(1, kMinDecideCalls / calls);
    std::uint64_t sink = 0;
    SpanRecorder::Scope span(spans, "core.decide");
    for (std::uint64_t r = 0; r < reps; ++r) {
        for (const DecisionInputs &in : pair_in)
            sink += decidePartition(in).targetFgWays;
        for (const NPartitionInputs &in : napp_in)
            sink += decideNPartition(in).masks.size();
    }
    out.nsPerDecide = nsPer(span.elapsed(), reps * calls);
    // Keep the calls observable so they cannot be optimized away.
    if (sink == 0xffffffffffffffffULL)
        out.mismatches += 1;
    return out;
}

std::vector<obs::JournalEntry>
journalFromLedger(const std::string &ledger_path)
{
    std::vector<obs::JournalEntry> out;
    for (const obs::RunRecord &rec : obs::RunLedger::load(ledger_path).records) {
        if (rec.kind != "decision" && rec.kind != "npartition_decision")
            continue;
        obs::JournalEntry e;
        e.kind = rec.kind;
        e.rule = rec.rule;
        e.tUs = rec.metric("t_us");
        e.fields = rec.metrics;
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace perfbench
