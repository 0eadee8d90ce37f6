#include "mem/set_assoc_cache.hh"

#include <sys/mman.h>

#include <bit>

#include "common/logging.hh"

namespace capart
{

ZeroedBlock::ZeroedBlock(std::size_t bytes) : bytes_(bytes)
{
    void *p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        capart_fatal("cannot map " << bytes_ << " B of cache planes");
    data_ = static_cast<std::byte *>(p);
}

ZeroedBlock::~ZeroedBlock()
{
    ::munmap(data_, bytes_);
}

namespace
{

/** Bytes per core-valid directory entry for @p cores inner cores. */
unsigned
innerPresenceBytes(unsigned cores)
{
    if (cores > 64)
        return 0;
    return cores <= 8 ? 1u : std::bit_ceil(cores) / 8;
}

/** Words of LRU recency order per set: one byte per way. */
unsigned
orderWordsFor(const CacheConfig &cfg)
{
    return cfg.repl == ReplPolicy::LRU ? (cfg.ways + 7) / 8 : 0;
}

/** Byte offsets of each plane in a cache's block, widest first. */
struct PlaneLayout
{
    std::uint64_t orderAt, metaAt, innerAt, ownerAt, bytes;

    PlaneLayout(std::uint64_t sets, unsigned ways, unsigned orderWords,
                unsigned innerBytes)
    {
        const std::uint64_t lines = sets * ways;
        orderAt = lines * sizeof(std::uint64_t);
        metaAt = orderAt + sets * orderWords * sizeof(std::uint64_t);
        innerAt = metaAt + sets * sizeof(SetMeta);
        ownerAt = innerAt + lines * innerBytes;
        bytes = ownerAt + lines;
    }
};

/** Set count of @p cfg, which must be a power of two. */
std::uint64_t
checkedSets(const CacheConfig &cfg)
{
    const std::uint64_t sets = cfg.sets();
    if (sets == 0 || !std::has_single_bit(sets)) {
        capart_fatal("cache '" << cfg.name << "': size "
                     << cfg.sizeBytes << " B / " << cfg.ways
                     << " ways / " << kLineBytes
                     << " B lines yields " << sets
                     << " sets; the set count must be a power of two");
    }
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &cfg, std::uint64_t seed,
                             unsigned innerCores)
    : cfg_(cfg),
      sets_(checkedSets(cfg)),
      ways_(cfg.ways),
      hashed_(cfg.index == IndexFn::Hashed),
      policy_(cfg.repl),
      // Inclusive caches keep a core-valid directory, one bit per inner
      // core, so back-invalidation probes only cores that may actually
      // hold the victim.
      innerBytes_(cfg.inclusive ? innerPresenceBytes(innerCores) : 0),
      planes_(PlaneLayout(sets_, ways_, orderWordsFor(cfg), innerBytes_)
                  .bytes),
      orderWords_(orderWordsFor(cfg)),
      fullMask_((cfg.ways >= 32) ? ~0u : ((1u << cfg.ways) - 1u)),
      rng_(seed)
{
    capart_assert(ways_ >= 1 && ways_ <= 32);
    const unsigned slots = cfg.partitionSlots ? cfg.partitionSlots : 1;
    masks_.assign(slots, WayMask::all(ways_));
    stats_.assign(slots, PartitionStats{});

    const PlaneLayout at(sets_, ways_, orderWords_, innerBytes_);
    std::byte *base = planes_.data();
    tags_ = reinterpret_cast<std::uint64_t *>(base);
    order_ = reinterpret_cast<std::uint64_t *>(base + at.orderAt);
    meta_ = reinterpret_cast<SetMeta *>(base + at.metaAt);
    inner_ = reinterpret_cast<std::uint8_t *>(base + at.innerAt);
    owner_ = reinterpret_cast<std::uint8_t *>(base + at.ownerAt);

    if (policy_ == ReplPolicy::TreePLRU) {
        leaves_ = plruLeaves(ways_);
        levels_ = plruLevels(ways_);
        slotTables_.assign(
            slots, buildPlruMaskTable(ways_, WayMask::all(ways_).bits()));
    }
}

int
SetAssocCache::ownerOf(Addr line) const
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way < 0)
        return -1;
    return owner_[set * ways_ + static_cast<unsigned>(way)];
}

InvalidateResult
SetAssocCache::invalidate(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way < 0)
        return InvalidateResult{};
    const std::uint64_t idx = set * ways_ + static_cast<unsigned>(way);
    const std::uint32_t bit = 1u << static_cast<unsigned>(way);
    SetMeta &m = meta_[set];
    InvalidateResult res;
    res.wasPresent = true;
    res.wasDirty = (m.dirty & bit) != 0;
    m.valid &= ~bit;
    m.dirty &= ~bit;
    tags_[idx] = 0;
    if (innerBytes_ != 0)
        storeInner(idx, 0);
    switch (policy_) {
      case ReplPolicy::BitPLRU:
      case ReplPolicy::NRU:
        m.repl &= ~bit;
        break;
      case ReplPolicy::LRU:
      case ReplPolicy::Random:
      case ReplPolicy::TreePLRU:
        // Nothing to forget: victim() prefers invalid allowed ways
        // before consulting policy state, and an LRU order ranks the
        // valid ways alone correctly wherever the invalid one sits.
        break;
    }
    return res;
}

void
SetAssocCache::setPartitionMask(unsigned slot, WayMask mask)
{
    capart_assert(slot < masks_.size());
    capart_assert(!mask.empty());
    capart_assert((mask & WayMask::all(ways_)) == mask);
    masks_[slot] = mask;
    if (policy_ == ReplPolicy::TreePLRU)
        slotTables_[slot] = buildPlruMaskTable(ways_, mask.bits());
}

WayMask
SetAssocCache::partitionMask(unsigned slot) const
{
    capart_assert(slot < masks_.size());
    return masks_[slot];
}

const PartitionStats &
SetAssocCache::slotStats(unsigned slot) const
{
    capart_assert(slot < stats_.size());
    return stats_[slot];
}

PartitionStats
SetAssocCache::totalStats() const
{
    PartitionStats total;
    for (const auto &s : stats_) {
        total.accesses += s.accesses;
        total.hits += s.hits;
    }
    return total;
}

void
SetAssocCache::resetStats()
{
    for (auto &s : stats_)
        s = PartitionStats{};
}

std::uint64_t
SetAssocCache::residentLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t set = 0; set < sets_; ++set)
        n += std::popcount(meta_[set].valid);
    return n;
}

} // namespace capart
