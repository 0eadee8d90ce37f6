/**
 * @file
 * A way-partitionable set-associative cache model.
 *
 * Partitioning follows the paper's mechanism exactly (§2.1): each
 * partition slot owns a @ref WayMask; lookups hit on data in any way;
 * only victim selection is restricted to the accessor's mask; and
 * changing a mask never flushes resident data.
 *
 * State lives in flat contiguous planes carved from one block per
 * cache (DESIGN.md "cache engine layout"): per-way tags and
 * inserter/owner ids, one packed @ref SetMeta record per set (valid,
 * dirty and replacement words), for LRU caches a per-set recency
 * order of way indices, and, for inclusive caches, a core-valid
 * directory sized to the core count. Replacement dispatches with a
 * switch on a member enum, so the access path inlines into callers
 * with no virtual calls. The set kernels avoid data-dependent
 * branches: a lookup builds a tag-match mask over all ways, an LRU
 * touch moves a way to the front of its set's order with word-wide
 * byte shifts, dirty bits are set by shifts, and tree-PLRU victims
 * descend precomputed per-mask traversal tables (mem/plru_tables.hh).
 * tests/test_mem_differential.cc replays random streams
 * against a naive reference model of every policy.
 */

#ifndef CAPART_MEM_SET_ASSOC_CACHE_HH
#define CAPART_MEM_SET_ASSOC_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/cache_config.hh"
#include "mem/plru_tables.hh"
#include "mem/way_mask.hh"

namespace capart
{

/** What a cache access did. */
struct CacheAccessResult
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    /** Line address of the evicted victim (valid iff evicted). */
    Addr victimLine = 0;
    /** The victim was dirty and must be written back outward. */
    bool victimDirty = false;
    /**
     * Inner-presence (core-valid) mask of the evicted victim: bit c set
     * means core c's private caches may hold a copy that must be
     * back-invalidated. Maintained only when tracksInnerPresence();
     * always a superset of the true holders. Meaningful iff `evicted`.
     */
    std::uint64_t victimInner = 0;
    /** Set index of the accessed/filled line. */
    std::uint64_t set = 0;
    /** Way now holding the line (hit or fresh insert); -1 if unknown. */
    std::int32_t way = -1;
};

/** Result of a probe-invalidate (inclusive back-invalidation). */
struct InvalidateResult
{
    bool wasPresent = false;
    bool wasDirty = false;
};

/** Per-partition-slot hit/miss accounting. */
struct PartitionStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    std::uint64_t misses() const { return accesses - hits; }
};

namespace detail
{

/** splitmix64 finalizer; decorrelates set selection from line alignment. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace detail

/**
 * Per-set metadata, packed so one lookup touches a single record
 * instead of one word in each of several per-set planes.
 */
struct SetMeta
{
    std::uint32_t valid = 0; //!< bit w set: way w holds a line
    std::uint32_t dirty = 0; //!< bit w set: way w's line is dirty
    /** BitPLRU MRU bits, NRU reference bits or TreePLRU direction bits. */
    std::uint32_t repl = 0;
};

/**
 * Zeroed memory mapped straight from the OS and unmapped on
 * destruction. Cache planes live in one such block: pages are zeroed
 * lazily on first touch, and a destroyed cache returns its pages
 * instead of leaving a large free chunk in the heap for smaller
 * allocations to split.
 */
class ZeroedBlock
{
  public:
    explicit ZeroedBlock(std::size_t bytes);
    ~ZeroedBlock();
    ZeroedBlock(const ZeroedBlock &) = delete;
    ZeroedBlock &operator=(const ZeroedBlock &) = delete;

    std::byte *data() const { return data_; }

  private:
    std::byte *data_;
    std::size_t bytes_;
};

/**
 * A single cache level: tag array, per-set replacement state, and
 * optional partition way masks.
 */
class SetAssocCache
{
  public:
    /**
     * @param cfg         geometry/policy; sets() must be a power of two.
     * @param seed        RNG seed (only the Random policy consumes it).
     * @param innerCores  cores whose private caches an inclusive cache
     *                    tracks. Its core-valid directory keeps 8, 16,
     *                    32 or 64 bits per line for up to 8, 16, 32 or
     *                    64 cores, and none above 64 (back-invalidation
     *                    then probes every core). Ignored unless
     *                    cfg.inclusive.
     */
    explicit SetAssocCache(const CacheConfig &cfg, std::uint64_t seed = 1,
                           unsigned innerCores = 64);

    /**
     * Demand access (read or write) by partition @p slot.
     * Misses allocate; the victim, if any, is reported for inclusive
     * back-invalidation and dirty writeback by the caller.
     */
    CacheAccessResult access(Addr line, bool write, unsigned slot = 0);

    /**
     * Install @p line without demand-counting it (prefetch fill or
     * writeback allocation). Replacement is still mask-restricted.
     * The caller must just have proved the line absent (a probe, touch
     * or markDirty that missed, with no insert into this cache since),
     * so the fill does no second tag lookup.
     */
    CacheAccessResult
    fillAbsent(Addr line, bool dirty, unsigned slot = 0)
    {
        capart_assert(slot < masks_.size());
        return insert(setIndex(line), line, dirty, slot);
    }

    /** True if @p line is resident (no state update). */
    bool probe(Addr line) const;

    /**
     * Way currently holding @p line, or -1 if absent (no state
     * update). Lets differential tests assert that a victim chosen
     * for a slot lay inside that slot's way mask.
     */
    int wayOf(Addr line) const { return findWay(setIndex(line), line); }

    /**
     * Partition slot that inserted the resident @p line, or -1 if the
     * line is absent. Occupancy audits (property tests, future UCP
     * policies) read this owner plane; demand hits by other slots do
     * not transfer ownership.
     */
    int ownerOf(Addr line) const;

    /**
     * Directory upkeep for inclusive caches: record that core @p core's
     * private caches may now hold @p line (no-op if the line is absent
     * or presence is untracked). The mask is sticky until the entry is
     * evicted or invalidated, so it stays a superset of true holders —
     * exactly the core-valid bits an inclusive LLC keeps in hardware.
     */
    void
    noteInnerPresence(Addr line, unsigned core)
    {
        if (innerBytes_ == 0)
            return;
        const std::uint64_t set = setIndex(line);
        noteInnerPresenceAt(set, findWay(set, line), core);
    }

    /**
     * O(1) directory upkeep when the caller already knows where the
     * line sits (from the CacheAccessResult of the access/fill that
     * located it) — skips the tag lookup noteInnerPresence() pays.
     */
    void
    noteInnerPresenceAt(std::uint64_t set, std::int32_t way, unsigned core)
    {
        if (way < 0 || core >= innerPresenceBits())
            return;
        const std::uint64_t idx = set * ways_ + static_cast<unsigned>(way);
        storeInner(idx, loadInner(idx) | (1ull << core));
    }

    /**
     * Core-valid bits of the resident @p line; 0 if the line is absent
     * or presence is untracked. Lets tests audit the directory.
     */
    std::uint64_t
    innerPresence(Addr line) const
    {
        const std::uint64_t set = setIndex(line);
        const int way = findWay(set, line);
        if (innerBytes_ == 0 || way < 0)
            return 0;
        return loadInner(set * ways_ + static_cast<unsigned>(way));
    }

    /** Inner-presence directory allocated (inclusive caches only). */
    bool tracksInnerPresence() const { return innerBytes_ != 0; }

    /** Core-valid bits per directory entry; 0 without a directory. */
    unsigned innerPresenceBits() const { return innerBytes_ * 8; }

    /** Mark a resident line dirty (inner writeback hit); no-op if absent. */
    bool markDirty(Addr line) { return markDirtyWay(line) >= 0; }

    /**
     * As markDirty, but returns the way of the line (-1 if absent), so
     * a caller can update the directory without a second lookup.
     */
    int markDirtyWay(Addr line);

    /** Refresh replacement recency of a resident line; no-op if absent. */
    bool touchLine(Addr line) { return touchLineWay(line) >= 0; }

    /** As touchLine, but returns the way touched (-1 if absent). */
    int touchLineWay(Addr line);

    /** Remove @p line if present (back-invalidation). */
    InvalidateResult invalidate(Addr line);

    /** Install a partition mask; data is deliberately not flushed. */
    void setPartitionMask(unsigned slot, WayMask mask);

    WayMask partitionMask(unsigned slot) const;

    const CacheConfig &config() const { return cfg_; }
    std::uint64_t sets() const { return sets_; }

    const PartitionStats &slotStats(unsigned slot) const;
    /** Aggregate over all slots. */
    PartitionStats totalStats() const;
    void resetStats();

    /** Number of resident lines whose set index falls in this cache. */
    std::uint64_t residentLines() const;

    /**
     * Visit every resident line as (lineAddr, way). Read-only walk of
     * the tag array in (set, way) order; the attribution sampler uses
     * it to count occupancy per owning application.
     */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (std::uint64_t set = 0; set < sets_; ++set) {
            const std::uint32_t valid = meta_[set].valid;
            if (!valid)
                continue;
            for (unsigned way = 0; way < ways_; ++way) {
                if (valid & (1u << way))
                    fn(tags_[set * ways_ + way] - 1, way);
            }
        }
    }

    /** Set index for @p line under this cache's indexing function. */
    std::uint64_t
    setIndex(Addr line) const
    {
        if (hashed_)
            return detail::mix64(line) & (sets_ - 1);
        return line & (sets_ - 1);
    }

  private:
    /** Bit w set: tags[w] == tag, for a compile-time way count. */
    template <unsigned W>
    static std::uint32_t
    matchTags(const std::uint64_t *tags, std::uint64_t tag)
    {
        std::uint32_t match = 0;
        for (unsigned w = 0; w < W; ++w)
            match |= static_cast<std::uint32_t>(tags[w] == tag) << w;
        return match;
    }

    /**
     * Way of @p line within @p set, or -1. Compares every way's tag
     * into a match mask instead of exiting the loop at a data-dependent
     * way, so the lookup costs no mispredicted branch. The modelled
     * associativities (8-way L1 and L2, 12- and 20-way LLCs) get a fully
     * unrolled compare; a loop bounded by the run-time way count cost an
     * L1 hit about a quarter of its time.
     */
    int
    findWay(std::uint64_t set, Addr line) const
    {
        const std::uint64_t tag = line + 1;
        const std::uint64_t *tags = tags_ + set * ways_;
        std::uint32_t match;
        switch (ways_) {
          case 8:
            match = matchTags<8>(tags, tag);
            break;
          case 12:
            match = matchTags<12>(tags, tag);
            break;
          case 20:
            match = matchTags<20>(tags, tag);
            break;
          default:
            match = 0;
            for (unsigned w = 0; w < ways_; ++w)
                match |= static_cast<std::uint32_t>(tags[w] == tag) << w;
            break;
        }
        match &= meta_[set].valid;
        return match ? std::countr_zero(match) : -1;
    }

    /** Directory entry @p idx (requires a directory). */
    std::uint64_t
    loadInner(std::uint64_t idx) const
    {
        const std::uint8_t *p = inner_ + idx * innerBytes_;
        switch (innerBytes_) {
          case 1:
            return *p;
          case 2: {
            std::uint16_t v;
            std::memcpy(&v, p, sizeof v);
            return v;
          }
          case 4: {
            std::uint32_t v;
            std::memcpy(&v, p, sizeof v);
            return v;
          }
          default: {
            std::uint64_t v;
            std::memcpy(&v, p, sizeof v);
            return v;
          }
        }
    }

    /** Overwrite directory entry @p idx with the low bits of @p mask. */
    void
    storeInner(std::uint64_t idx, std::uint64_t mask)
    {
        std::uint8_t *p = inner_ + idx * innerBytes_;
        switch (innerBytes_) {
          case 1:
            *p = static_cast<std::uint8_t>(mask);
            return;
          case 2: {
            const auto v = static_cast<std::uint16_t>(mask);
            std::memcpy(p, &v, sizeof v);
            return;
          }
          case 4: {
            const auto v = static_cast<std::uint32_t>(mask);
            std::memcpy(p, &v, sizeof v);
            return;
          }
          default:
            std::memcpy(p, &mask, sizeof mask);
            return;
        }
    }

    /**
     * LRU recency order, most recent first: byte p of a set's order
     * (byte p % 8 of word p / 8) is the way at position p. Words are
     * stored XORed with the identity order, so the zeroed plane starts
     * as the order 0, 1, ..., ways-1 with no initialising pass; bytes
     * past the last way keep their position as value and never match
     * a way.
     */
    static constexpr std::uint64_t kOrderOnes = 0x0101010101010101ULL;

    /** The identity order's word @p k (positions 8k .. 8k+7). */
    static constexpr std::uint64_t
    orderIdentity(unsigned k)
    {
        return 0x0706050403020100ULL + k * 0x0808080808080808ULL;
    }

    /**
     * Move @p way to the front of @p set's order: the bytes before its
     * position shift up by one, carrying across words, and the bytes
     * after it stay. The way's byte is found by SWAR zero-byte search;
     * the lowest flagged byte is exact.
     */
    void
    lruTouch(std::uint64_t set, unsigned way)
    {
        std::uint64_t *o = order_ + set * orderWords_;
        const std::uint64_t pattern = way * kOrderOnes;
        std::uint64_t carry = way;
        for (unsigned k = 0;; ++k) {
            const std::uint64_t x = o[k] ^ orderIdentity(k);
            const std::uint64_t y = x ^ pattern;
            const std::uint64_t found =
                (y - kOrderOnes) & ~y & (kOrderOnes << 7);
            if (found != 0) {
                // Bits up to the lowest flag: the bytes up to and
                // including the way's own.
                const std::uint64_t upto = found ^ (found - 1);
                o[k] = ((x ^ ((x ^ (x << 8)) & upto)) | carry) ^
                       orderIdentity(k);
                return;
            }
            o[k] = ((x << 8) | carry) ^ orderIdentity(k);
            carry = x >> 56;
        }
    }

    /** Way at position @p pos of @p set's order. */
    unsigned
    orderAt(std::uint64_t set, unsigned pos) const
    {
        const std::uint64_t x =
            order_[set * orderWords_ + pos / 8] ^ orderIdentity(pos / 8);
        return static_cast<unsigned>(x >> (8 * (pos % 8))) & 0xffu;
    }

    /**
     * Least recently used way of @p allowed: the last allowed way in
     * the order. Every allowed way is valid here, and each was touched
     * when it was filled, so the order ranks them by last use.
     */
    unsigned
    lruVictim(std::uint64_t set, std::uint32_t allowed) const
    {
        if (allowed == fullMask_)
            return orderAt(set, ways_ - 1);
        std::uint32_t at = 0; // bit p set: the way at position p is allowed
        for (unsigned p = 0; p < ways_; ++p)
            at |= ((allowed >> orderAt(set, p)) & 1u) << p;
        return orderAt(set,
                       31u - static_cast<unsigned>(std::countl_zero(at)));
    }

    /** Recency update of @p way in @p set under the configured policy. */
    void
    replTouch(std::uint64_t set, unsigned way)
    {
        SetMeta &m = meta_[set];
        switch (policy_) {
          case ReplPolicy::LRU:
            lruTouch(set, way);
            return;
          case ReplPolicy::BitPLRU: {
            std::uint32_t bits = m.repl | (1u << way);
            // Saturation: when every way is marked MRU, restart the
            // epoch but keep the just-touched way marked.
            if ((bits & fullMask_) == fullMask_)
                bits = (1u << way);
            m.repl = bits;
            return;
          }
          case ReplPolicy::NRU:
            m.repl |= (1u << way);
            return;
          case ReplPolicy::Random:
            return;
          case ReplPolicy::TreePLRU: {
            std::uint32_t state = m.repl;
            unsigned node = leaves_ + way;
            while (node > 1) {
                const unsigned parent = node >> 1;
                // Point the parent away from the child we came from.
                const std::uint32_t away = (node & 1u) ^ 1u;
                state = (state & ~(1u << parent)) | (away << parent);
                node = parent;
            }
            m.repl = state;
            return;
          }
        }
    }

    /** Victim inside @p slot's mask (invalid ways first). */
    unsigned
    replVictim(std::uint64_t set, unsigned slot)
    {
        SetMeta &m = meta_[set];
        const std::uint32_t allowed = masks_[slot].bits();
        const std::uint32_t invalid = allowed & ~m.valid;
        if (invalid != 0)
            return static_cast<unsigned>(std::countr_zero(invalid));

        switch (policy_) {
          case ReplPolicy::LRU:
            return lruVictim(set, allowed);
          case ReplPolicy::BitPLRU: {
            const std::uint32_t clear = allowed & ~m.repl;
            if (clear != 0)
                return static_cast<unsigned>(std::countr_zero(clear));
            // Every allowed way is MRU-marked: treat the mask as one
            // epoch and take the lowest allowed way.
            m.repl &= ~allowed;
            return static_cast<unsigned>(std::countr_zero(allowed));
          }
          case ReplPolicy::NRU: {
            std::uint32_t clear = allowed & ~m.repl;
            if (clear == 0) {
                // No not-recently-used candidate: clear the reference
                // bits (the NRU "second chance" sweep) and retry.
                m.repl &= ~allowed;
                clear = allowed;
            }
            return static_cast<unsigned>(std::countr_zero(clear));
          }
          case ReplPolicy::Random: {
            const unsigned n =
                static_cast<unsigned>(std::popcount(allowed));
            unsigned pick = static_cast<unsigned>(rng_.below(n));
            std::uint32_t bits = allowed;
            while (pick--)
                bits &= bits - 1;
            return static_cast<unsigned>(std::countr_zero(bits));
          }
          case ReplPolicy::TreePLRU: {
            // Branch-free descent over the slot's precomputed table:
            // follow the direction bits, flipping only where the
            // pointed-to subtree holds no allowed way.
            const PlruMaskTable &tbl = slotTables_[slot];
            const std::uint32_t state = m.repl;
            unsigned node = 1;
            for (unsigned lvl = 0; lvl < levels_; ++lvl) {
                const unsigned want = (state >> node) & 1u;
                const unsigned ok = (tbl.node[node] >> want) & 1u;
                node = 2 * node + (want ^ (ok ^ 1u));
            }
            return node - leaves_;
          }
        }
        capart_panic("unknown replacement policy");
    }

    /** Hit on @p way of @p set: refresh recency, maybe mark dirty. */
    void
    hitWay(std::uint64_t set, unsigned way, bool dirty)
    {
        replTouch(set, way);
        meta_[set].dirty |= static_cast<std::uint32_t>(dirty) << way;
    }

    CacheAccessResult
    insert(std::uint64_t set, Addr line, bool dirty, unsigned slot)
    {
        CacheAccessResult res;
        res.set = set;
        capart_assert(!masks_[slot].empty());
        const unsigned victim = replVictim(set, slot);
        capart_assert(victim < ways_);
        capart_assert(masks_[slot].contains(victim));
        res.way = static_cast<std::int32_t>(victim);

        SetMeta &m = meta_[set];
        const std::uint64_t idx = set * ways_ + victim;
        const std::uint32_t bit = 1u << victim;
        if (m.valid & bit) {
            res.evicted = true;
            res.victimLine = tags_[idx] - 1;
            res.victimDirty = (m.dirty & bit) != 0;
        }
        if (innerBytes_ != 0) {
            res.victimInner = loadInner(idx);
            storeInner(idx, 0); // new line starts with no inner copies
        }

        tags_[idx] = line + 1;
        owner_[idx] = static_cast<std::uint8_t>(slot);
        m.valid |= bit;
        m.dirty = (m.dirty & ~bit) |
                  (static_cast<std::uint32_t>(dirty) << victim);
        replTouch(set, victim);
        return res;
    }

    CacheConfig cfg_;
    std::uint64_t sets_;
    unsigned ways_;
    bool hashed_;
    ReplPolicy policy_;

    unsigned innerBytes_; //!< directory entry width; 0 = none

    // ---- flat planes (cache engine layout; see DESIGN.md) -----------
    /** Backing store of every plane below. */
    ZeroedBlock planes_;
    /** tag[set*ways+way] = lineAddr+1; 0 means invalid. */
    std::uint64_t *tags_;
    /** One valid/dirty/replacement record per set. */
    SetMeta *meta_;
    /** LRU only: orderWords_ words of recency order per set. */
    std::uint64_t *order_;
    unsigned orderWords_; //!< ceil(ways / 8) for LRU, else 0
    /**
     * Core-valid directory (inclusive caches only): entry
     * set*ways+way is innerBytes_ bytes wide, read and written through
     * loadInner()/storeInner().
     */
    std::uint8_t *inner_;
    /** owner[set*ways+way] = partition slot that inserted the line. */
    std::uint8_t *owner_;
    /** TreePLRU traversal table per partition slot (mask-derived). */
    std::vector<PlruMaskTable> slotTables_;
    unsigned leaves_ = 1;   //!< TreePLRU padded leaf count
    unsigned levels_ = 0;   //!< TreePLRU tree depth
    std::uint32_t fullMask_; //!< all `ways_` bits set
    Rng rng_;                //!< Random policy only

    std::vector<WayMask> masks_;
    std::vector<PartitionStats> stats_;
};

inline CacheAccessResult
SetAssocCache::access(Addr line, bool write, unsigned slot)
{
    capart_assert(slot < stats_.size());
    ++stats_[slot].accesses;

    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0) {
        ++stats_[slot].hits;
        hitWay(set, static_cast<unsigned>(way), write);
        return CacheAccessResult{.hit = true, .set = set, .way = way};
    }
    return insert(set, line, write, slot);
}

inline int
SetAssocCache::touchLineWay(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0)
        replTouch(set, static_cast<unsigned>(way));
    return way;
}

inline int
SetAssocCache::markDirtyWay(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0)
        hitWay(set, static_cast<unsigned>(way), true);
    return way;
}

inline bool
SetAssocCache::probe(Addr line) const
{
    return findWay(setIndex(line), line) >= 0;
}

} // namespace capart

#endif // CAPART_MEM_SET_ASSOC_CACHE_HH
