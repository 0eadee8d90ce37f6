/**
 * @file
 * Unit and property tests for the three-level hierarchy: service
 * levels, writeback cascades, the inclusive-LLC invariant, and the
 * prefetch fill paths.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/units.hh"
#include "mem/hierarchy.hh"

namespace capart
{
namespace
{

HierarchyConfig
tinyHierarchy()
{
    HierarchyConfig cfg = HierarchyConfig::sandyBridge();
    cfg.l1.sizeBytes = 2 * kib(1);  // 4 sets x 8 ways
    cfg.l2.sizeBytes = 8 * kib(1);  // 16 sets x 8 ways
    cfg.llc.sizeBytes = 48 * kib(1); // 64 sets x 12 ways
    cfg.llc.index = IndexFn::Modulo;
    return cfg;
}

TEST(Hierarchy, FirstAccessGoesToMemory)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    const HierarchyOutcome out = h.access(0, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::Memory);
    EXPECT_EQ(out.dramReads, 1u);
    EXPECT_TRUE(out.llcAccess);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    h.access(0, 0, 0x1000, false);
    const HierarchyOutcome out = h.access(0, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L1);
    EXPECT_EQ(out.dramReads, 0u);
    EXPECT_FALSE(out.llcAccess);
}

TEST(Hierarchy, CrossCoreAccessHitsInLlc)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    h.access(0, 0, 0x1000, false);
    // Another core's private caches are cold; the LLC serves it.
    const HierarchyOutcome out = h.access(1, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::LLC);
}

TEST(Hierarchy, L1EvictionSpillsToL2)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    // The tiny L1 holds 32 lines; stream 64 distinct lines that map
    // across its 4 sets, then re-walk: the spilled half hits L2.
    for (unsigned k = 0; k < 64; ++k)
        h.access(0, 0, k * kLineBytes, false);
    unsigned l2_hits = 0;
    for (unsigned k = 0; k < 32; ++k) {
        if (h.access(0, 0, k * kLineBytes, false).servedBy ==
            ServiceLevel::L2) {
            ++l2_hits;
        }
    }
    EXPECT_GT(l2_hits, 16u);
}

/** Walk the hierarchy checking inclusion: every L1/L2 line is in LLC. */
void
checkInclusion(CacheHierarchy &h, const std::vector<Addr> &lines)
{
    for (const Addr line : lines) {
        for (unsigned c = 0; c < h.numCores(); ++c) {
            if (h.l1(c).probe(line) || h.l2(c).probe(line)) {
                EXPECT_TRUE(h.llc().probe(line))
                    << "inclusion violated for line " << line;
            }
        }
    }
}

TEST(Hierarchy, InclusionInvariantUnderRandomTraffic)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    Rng rng(99);
    std::vector<Addr> lines;
    for (unsigned k = 0; k < 2048; ++k)
        lines.push_back(rng.below(4096));

    for (unsigned k = 0; k < lines.size(); ++k) {
        h.access(static_cast<CoreId>(k % 2), 0, lines[k] * kLineBytes,
                 rng.chance(0.3));
        if (k % 256 == 255)
            checkInclusion(h, lines);
    }
    checkInclusion(h, lines);
}

TEST(Hierarchy, InclusionHoldsWithPartitioningAndRemask)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    Rng rng(7);
    h.setLlcPartition(0, WayMask::range(0, 4));
    h.setLlcPartition(1, WayMask::range(4, 8));

    std::vector<Addr> lines;
    for (unsigned k = 0; k < 1024; ++k)
        lines.push_back(rng.below(2048));

    for (unsigned k = 0; k < lines.size(); ++k) {
        const unsigned slot = k % 2;
        h.access(slot, slot, lines[k] * kLineBytes, rng.chance(0.3));
        if (k == 512) {
            // Remask mid-run: must not break inclusion (no flush).
            h.setLlcPartition(0, WayMask::range(0, 10));
            h.setLlcPartition(1, WayMask::range(10, 2));
        }
    }
    checkInclusion(h, lines);
}

/**
 * Every line in core c's L1 or L2 is resident in the LLC with core c's
 * directory bit set.
 */
void
expectDirectoryCoversInnerCopies(CacheHierarchy &h, unsigned op)
{
    for (unsigned c = 0; c < h.numCores(); ++c) {
        auto check = [&](Addr line, unsigned) {
            EXPECT_TRUE((h.llc().innerPresence(line) >> c) & 1u)
                << "op " << op << ": core " << c << " holds line " << line
                << " without its LLC directory bit";
        };
        h.l1(c).forEachResident(check);
        h.l2(c).forEachResident(check);
    }
}

/**
 * The directory bit of a demanded line is set lazily: only right
 * before an LLC fill inside a writeback cascade (the one step that can
 * evict the line mid-access), and otherwise by the access's own LLC
 * lookup. After every demand, prefetch and remask operation of a
 * random multi-core stream, the directory must still cover every
 * inner copy, and the operation's line, if the LLC holds it, must
 * carry the core's bit: the eager lookup that used to run before each
 * cascade would have set no bit the operation did not set itself.
 */
TEST(Hierarchy, LazyPresenceNoteKeepsDirectoryExact)
{
    for (const unsigned cores : {4u, 16u}) {
        SCOPED_TRACE(cores);
        CacheHierarchy h(tinyHierarchy(), cores, 5);
        Rng rng(cores);
        const unsigned ops = cores == 4 ? 20000 : 8000;
        for (unsigned op = 0; op < ops; ++op) {
            const auto core = static_cast<CoreId>(rng.below(cores));
            const unsigned slot = core % 4;
            const Addr line = rng.below(2048);
            const std::uint64_t kind = rng.below(16);
            if (kind == 0) {
                const WayMask m(static_cast<std::uint32_t>(
                    rng.below((1u << 12) - 1) + 1));
                h.setLlcPartition(slot, m);
            } else if (kind <= 3) {
                h.prefetchIntoL1(core, slot, line);
            } else if (kind <= 6) {
                h.prefetchIntoL2(core, slot, line);
            } else {
                h.access(core, slot, line * kLineBytes, rng.chance(0.4));
            }
            if (kind != 0 && h.llc().probe(line)) {
                ASSERT_TRUE((h.llc().innerPresence(line) >> core) & 1u)
                    << "op " << op << ": line " << line;
            }
            expectDirectoryCoversInnerCopies(h, op);
            if (HasFailure())
                return;
        }
    }
}

/**
 * The inclusive LLC's core-valid directory is sized to the core count:
 * 8, 16, 32 or 64 bits per line up to 8, 16, 32 or 64 cores, none
 * above. At every width, a random multi-core stream that forces LLC
 * evictions (demand loads and stores plus both prefetch fill paths,
 * over lines shared between cores) must keep inclusion and produce
 * exactly the outcomes of a probe-all run — the same machine with a
 * non-inclusive LLC config, which keeps no directory and
 * back-invalidates every core.
 */
TEST(Hierarchy, DirectoryWidthFollowsCoreCount)
{
    struct WidthCase
    {
        unsigned cores;
        unsigned bits;
    };
    constexpr WidthCase kCases[] = {{1, 8},   {8, 8},   {9, 16},
                                    {16, 16}, {17, 32}, {32, 32},
                                    {33, 64}, {64, 64}, {65, 0}};
    constexpr Addr kLines = 2048; // ~2.7x the tiny LLC's 768 lines

    for (const WidthCase &wc : kCases) {
        SCOPED_TRACE(testing::Message() << wc.cores << " cores");
        const HierarchyConfig cfg = tinyHierarchy();
        HierarchyConfig probe_all_cfg = cfg;
        probe_all_cfg.llc.inclusive = false;
        CacheHierarchy h(cfg, wc.cores);
        CacheHierarchy probe_all(probe_all_cfg, wc.cores);
        ASSERT_EQ(h.llc().innerPresenceBits(), wc.bits);
        ASSERT_FALSE(probe_all.llc().tracksInnerPresence());

        Rng rng(1000 + wc.cores);
        unsigned dram_writes = 0;
        for (unsigned op = 0; op < 20000; ++op) {
            const CoreId core =
                static_cast<CoreId>(rng.below(wc.cores));
            const unsigned slot = core % 4;
            const Addr line = rng.below(kLines);
            const double kind = rng.uniform();
            HierarchyOutcome a;
            HierarchyOutcome b;
            if (kind < 0.1) {
                a = h.prefetchIntoL1(core, slot, line);
                b = probe_all.prefetchIntoL1(core, slot, line);
            } else if (kind < 0.2) {
                a = h.prefetchIntoL2(core, slot, line);
                b = probe_all.prefetchIntoL2(core, slot, line);
            } else {
                const bool write = kind < 0.5;
                a = h.access(core, slot, line * kLineBytes, write);
                b = probe_all.access(core, slot, line * kLineBytes,
                                     write);
            }
            ASSERT_EQ(a.servedBy, b.servedBy) << "op " << op;
            ASSERT_EQ(a.dramReads, b.dramReads) << "op " << op;
            ASSERT_EQ(a.dramWrites, b.dramWrites) << "op " << op;
            ASSERT_EQ(a.llcAccess, b.llcAccess) << "op " << op;
            dram_writes += a.dramWrites;

            if (op % 4096 == 4095) {
                for (Addr l = 0; l < kLines; ++l) {
                    if (h.llc().probe(l))
                        continue;
                    for (unsigned c = 0; c < wc.cores; ++c) {
                        ASSERT_FALSE(h.l1(c).probe(l) || h.l2(c).probe(l))
                            << "line " << l << " held by core " << c
                            << " but missing from the LLC";
                    }
                }
            }
        }
        // Dirty LLC victims reached DRAM: the stream really evicted.
        EXPECT_GT(dram_writes, 100u);
    }

    // A standalone inclusive cache has no core count to go by.
    CacheConfig standalone = tinyHierarchy().llc;
    EXPECT_EQ(SetAssocCache(standalone).innerPresenceBits(), 64u);
    standalone.inclusive = false;
    EXPECT_FALSE(SetAssocCache(standalone).tracksInnerPresence());
}

TEST(Hierarchy, DirtyDataSurvivesWritebackChain)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    // Dirty a line, push it out of L1 and L2 with a long stream, then
    // verify a re-read is served on-chip (the dirty line reached the
    // LLC, not thin air) or generated a DRAM writeback.
    h.access(0, 0, 0x0, true);
    unsigned writebacks = 0;
    for (unsigned k = 1; k < 512; ++k) {
        const HierarchyOutcome out =
            h.access(0, 0, k * kLineBytes, false);
        writebacks += out.dramWrites;
    }
    // The dirtied line either still sits somewhere on-chip or its
    // eviction produced exactly one DRAM write.
    const bool on_chip =
        h.l1(0).probe(0) || h.l2(0).probe(0) || h.llc().probe(0);
    EXPECT_TRUE(on_chip || writebacks >= 1);
}

TEST(Hierarchy, LlcEvictionBackInvalidatesInnerLevels)
{
    HierarchyConfig cfg = tinyHierarchy();
    // Make the LLC direct-mapped and tiny so evictions are easy to force.
    cfg.llc.sizeBytes = 4 * kib(1); // 64 sets x 1 way
    cfg.llc.ways = 1;
    cfg.llc.partitionSlots = 2;
    CacheHierarchy h(cfg, 1);

    h.access(0, 0, 0x0, false);
    EXPECT_TRUE(h.l1(0).probe(0));
    // Conflicting line (same LLC set, 64 sets apart) evicts line 0.
    h.access(0, 0, 64 * kLineBytes, false);
    EXPECT_FALSE(h.llc().probe(0));
    EXPECT_FALSE(h.l1(0).probe(0)) << "L1 copy must be back-invalidated";
    EXPECT_FALSE(h.l2(0).probe(0)) << "L2 copy must be back-invalidated";
}

TEST(Hierarchy, PrefetchIntoL1MakesNextAccessHit)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    const HierarchyOutcome p = h.prefetchIntoL1(0, 0, 5);
    EXPECT_EQ(p.dramReads, 1u);
    const HierarchyOutcome out = h.access(0, 0, 5 * kLineBytes, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L1);
}

TEST(Hierarchy, PrefetchIntoL2MakesNextAccessHitL2)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    h.prefetchIntoL2(0, 0, 9);
    const HierarchyOutcome out = h.access(0, 0, 9 * kLineBytes, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L2);
}

TEST(Hierarchy, RedundantPrefetchIsFree)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    h.access(0, 0, 3 * kLineBytes, false);
    const HierarchyOutcome p = h.prefetchIntoL1(0, 0, 3);
    EXPECT_EQ(p.dramReads, 0u);
    EXPECT_FALSE(p.llcAccess);
}

TEST(Hierarchy, PrefetchFillsRespectPartitionMask)
{
    HierarchyConfig cfg = tinyHierarchy();
    CacheHierarchy h(cfg, 2);
    h.setLlcPartition(0, WayMask::range(0, 2));
    h.setLlcPartition(1, WayMask::range(2, 10));

    // Slot 1 fills LLC set 0 heavily through demand.
    for (unsigned k = 0; k < 10; ++k)
        h.access(1, 1, (64ull * k) * kLineBytes, false);
    const std::uint64_t before = h.llc().slotStats(1).accesses;

    // Slot 0 prefetch-streams through the same set; slot 1's lines in
    // ways 2..11 may lose at most what fits in ways 0..1.
    for (unsigned k = 100; k < 200; ++k)
        h.prefetchIntoL2(0, 0, 64ull * k);
    unsigned survivors = 0;
    for (unsigned k = 0; k < 10; ++k)
        survivors += h.llc().probe(64ull * k);
    EXPECT_GE(survivors, 8u);
    EXPECT_EQ(h.llc().slotStats(1).accesses, before)
        << "prefetch fills must not count as demand accesses";
}

TEST(Hierarchy, LatencyBySeviceLevel)
{
    HierarchyConfig cfg = tinyHierarchy();
    CacheHierarchy h(cfg, 1);
    EXPECT_EQ(h.latency(ServiceLevel::L1, 100), cfg.l1Latency);
    EXPECT_EQ(h.latency(ServiceLevel::L2, 100), cfg.l2Latency);
    EXPECT_EQ(h.latency(ServiceLevel::LLC, 100), cfg.llcLatency);
    EXPECT_EQ(h.latency(ServiceLevel::Memory, 100),
              cfg.llcLatency + 100);
}

TEST(Hierarchy, SandyBridgeGeometry)
{
    const HierarchyConfig cfg = HierarchyConfig::sandyBridge();
    EXPECT_EQ(cfg.l1.sizeBytes, kib(32));
    EXPECT_EQ(cfg.l2.sizeBytes, kib(256));
    EXPECT_EQ(cfg.llc.sizeBytes, mib(6));
    EXPECT_EQ(cfg.llc.ways, 12u);
    EXPECT_EQ(cfg.llc.sets(), 8192u);
    EXPECT_TRUE(cfg.llc.inclusive);
    EXPECT_FALSE(cfg.l2.inclusive);
}

} // namespace
} // namespace capart
