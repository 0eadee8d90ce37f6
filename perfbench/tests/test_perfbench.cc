/**
 * @file
 * The benchmark's own tests: its names obey BENCHMARK.json's rules,
 * its digests are deterministic and catch a perturbed result, the
 * traced path computes exactly what runSpec computes, and a held-out
 * seed passes the invariants with a different digest.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "core/partitioner.hh"
#include "core/static_policies.hh"
#include "perfbench.hh"

using namespace perfbench;

namespace
{

const std::string kSourceDir = PERFBENCH_SOURCE_DIR;

capart::Json
loadJson(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = capart::Json::parse(ss.str());
    EXPECT_TRUE(doc.has_value()) << path;
    return doc.value_or(capart::Json::object());
}

/** A cheap pair spec (small scale) of the same shape as the workloads'. */
exec::ExperimentSpec
cheapPair()
{
    return exec::consolidationSpec(
        "batik", "fop",
        exec::policyBit(capart::Policy::Shared) |
            exec::policyBit(capart::Policy::Biased) |
            exec::policyBit(capart::Policy::Dynamic),
        0.01, 15e-6);
}

exec::ExperimentSpec
cheapNApp()
{
    unsigned all = 0;
    for (unsigned p = 0; p < capart::kNumNPolicies; ++p)
        all |= capart::npolicyBit(static_cast<capart::NPolicy>(p));
    return exec::nappSpec({"429.mcf", "470.lbm", "ferret", "fop"}, 16, 20,
                          all, 2, 0.01);
}

} // namespace

TEST(PerfbenchNames, MatchBenchmarkJsonAndItsCharacterRules)
{
    const capart::Json doc = loadJson(kSourceDir + "/../BENCHMARK.json");
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;

    std::vector<std::string> workloads;
    for (const capart::Json &w : doc.at("workloads").arr) {
        const std::string name = w.at("name").asStr();
        EXPECT_TRUE(std::regex_match(name, name_re)) << name;
        EXPECT_TRUE(seen.insert(name).second) << name;
        EXPECT_LE(w.at("why").asStr().size(), 200u) << name;
        workloads.push_back(name);
    }
    std::vector<std::string> table;
    for (const WorkloadInfo &w : workloadTable()) {
        table.push_back(w.name);
        EXPECT_LE(std::string(w.why).size(), 200u) << w.name;
    }
    EXPECT_EQ(workloads, table);

    const auto check = [&](const char *key,
                           const std::vector<MetricName> &emitted) {
        std::vector<std::string> json_names, emitted_names;
        for (const capart::Json &m : doc.at(key).arr) {
            const std::string name = m.at("name").asStr();
            EXPECT_TRUE(std::regex_match(name, name_re)) << name;
            EXPECT_TRUE(std::regex_match(m.at("unit").asStr(), unit_re))
                << name;
            EXPECT_TRUE(seen.insert(name).second) << name;
            json_names.push_back(name + " " + m.at("unit").asStr());
        }
        for (const MetricName &m : emitted)
            emitted_names.push_back(std::string(m.name) + " " + m.unit);
        EXPECT_EQ(json_names, emitted_names) << key;
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
}

TEST(PerfbenchDigest, TwoInProcessRunsAgree)
{
    const std::vector<exec::ExperimentSpec> specs = {cheapPair(),
                                                     cheapNApp()};
    PointTally tally;
    const auto a = checkRound(specs, runInProcess(specs, 7, 1), nullptr,
                              nullptr, &tally);
    const auto b =
        checkRound(specs, runInProcess(specs, 7, 1), nullptr, &a, &tally);
    EXPECT_EQ(tally.attempted, 4u);
    EXPECT_EQ(tally.failed, 0u) << (tally.problems.empty()
                                        ? ""
                                        : tally.problems.front());
    EXPECT_EQ(workloadDigest(a), workloadDigest(b));
}

TEST(PerfbenchDigest, TracedPathEqualsRunSpec)
{
    const std::vector<exec::ExperimentSpec> specs = {cheapPair(),
                                                     cheapNApp()};
    SpanRecorder spans(true);
    SimTally sim;
    const auto traced = runTraced(specs, 7, spans, &sim);
    ASSERT_EQ(traced.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(encodeResult(traced[i]),
                  encodeResult(exec::runSpec(specs[i], 7)))
            << specs[i].canonical();
    EXPECT_GT(sim.runs, 0u);
    EXPECT_GT(sim.retired, 0u);
    EXPECT_GT(spans.total("core.biased"), 0.0);
    EXPECT_EQ(spans.count("exec.point"), specs.size());
}

TEST(PerfbenchDigest, PerturbedResultIsAFailedPoint)
{
    const std::vector<exec::ExperimentSpec> specs = {cheapPair()};
    std::vector<exec::SweepResult> res = runInProcess(specs, 7, 1);
    PointTally tally;
    const auto good = checkRound(specs, res, nullptr, nullptr, &tally);
    ASSERT_EQ(tally.failed, 0u);

    // One ulp on one figure: invariants still hold, the digest does not.
    exec::PolicyOutcome &bi =
        res[0].policy[static_cast<int>(capart::Policy::Biased)];
    bi.bgThroughput = std::nextafter(bi.bgThroughput, 0.0);
    checkRound(specs, res, nullptr, &good, &tally);
    EXPECT_EQ(tally.failed, 1u);

    // Against a stored reference instead of an earlier round.
    const std::vector<std::string> ref = {hex64(good[0])};
    checkRound(specs, res, &ref, nullptr, &tally);
    EXPECT_EQ(tally.failed, 2u);

    // A non-finite figure fails the invariants on any seed.
    bi.bgThroughput = std::nan("");
    checkRound(specs, res, nullptr, nullptr, &tally);
    EXPECT_EQ(tally.failed, 3u);
    EXPECT_EQ(tally.attempted, 4u);
}

TEST(PerfbenchDigest, HeldOutSeedHoldsInvariantsWithAnotherDigest)
{
    std::string err;
    const auto table = ReferenceTable::load(
        kSourceDir + "/reference/digests.json", &err);
    ASSERT_TRUE(table.has_value()) << err;
    constexpr std::uint64_t kHeldOut = 999983;
    for (const WorkloadInfo &w : workloadTable())
        EXPECT_EQ(table->find(w.name, kHeldOut), nullptr) << w.name;

    const std::vector<exec::ExperimentSpec> specs = {cheapPair(),
                                                     cheapNApp()};
    PointTally tally;
    const auto seen = checkRound(specs, runInProcess(specs, 1, 1), nullptr,
                                 nullptr, &tally);
    const auto held = checkRound(specs, runInProcess(specs, kHeldOut, 1),
                                 nullptr, nullptr, &tally);
    EXPECT_EQ(tally.failed, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_NE(seen[i], held[i]) << specs[i].canonical();
}

TEST(PerfbenchReference, EveryStoredSeedCoversEveryPoint)
{
    const capart::Json doc = loadJson(kSourceDir + "/reference/digests.json");
    std::size_t entries = 0;
    for (const WorkloadInfo &w : workloadTable()) {
        const std::size_t points = workloadSpecs(w.id).size();
        ASSERT_TRUE(doc.at("workloads").has(w.name)) << w.name;
        for (const auto &[seed, digests] : doc.at("workloads").at(w.name).obj) {
            EXPECT_EQ(digests.arr.size(), points) << w.name << " " << seed;
            ++entries;
        }
    }
    EXPECT_GT(entries, 0u);
}
