/**
 * @file
 * Models of the four Sandy Bridge hardware prefetchers (§3.3):
 *
 *  1. DCU IP prefetcher       — per-PC stride detection into the L1D.
 *  2. DCU streamer            — repeated reads to one line trigger a
 *                               next-line prefetch into the L1D.
 *  3. MLC spatial prefetcher  — accesses to two successive lines trigger
 *                               an adjacent-line prefetch into the L2.
 *  4. MLC streamer            — per-page stream detection, prefetches
 *                               ahead into the L2.
 *
 * Enable/disable mirrors MSR 0x1A4 (a set bit *disables* the prefetcher,
 * as on real hardware).
 */

#ifndef CAPART_PREFETCH_PREFETCHERS_HH
#define CAPART_PREFETCH_PREFETCHERS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace capart
{

/** Which prefetchers are active on a core. */
struct PrefetchConfig
{
    bool mlcStreamer = true;
    bool mlcSpatial = true;
    bool dcuStreamer = true;
    bool dcuIp = true;

    /** All four on (hardware default) or all four off. */
    static PrefetchConfig
    allEnabled(bool on)
    {
        return PrefetchConfig{on, on, on, on};
    }

    /**
     * Encode as MSR 0x1A4 low bits. Bit semantics follow Intel's
     * documentation: bit0 MLC streamer, bit1 MLC spatial, bit2 DCU
     * streamer, bit3 DCU IP — a *set* bit disables the unit.
     */
    std::uint32_t toMsrBits() const;
    static PrefetchConfig fromMsrBits(std::uint32_t bits);

    bool operator==(const PrefetchConfig &) const = default;
};

/** One prefetch the bank wants issued. */
struct PrefetchRequest
{
    Addr line = 0;
    bool intoL1 = false; //!< true: DCU target (L1D); false: MLC (L2)
};

/** Per-prefetcher issue counters. */
struct PrefetchStats
{
    std::uint64_t dcuIpIssued = 0;
    std::uint64_t dcuStreamIssued = 0;
    std::uint64_t mlcSpatialIssued = 0;
    std::uint64_t mlcStreamIssued = 0;

    std::uint64_t
    totalIssued() const
    {
        return dcuIpIssued + dcuStreamIssued + mlcSpatialIssued +
               mlcStreamIssued;
    }
};

/**
 * The prefetch units attached to one core. The simulator reports every
 * demand access; the bank appends any prefetch requests to a caller-owned
 * vector (no allocation on the common path).
 */
class PrefetcherBank
{
  public:
    explicit PrefetcherBank(const PrefetchConfig &cfg = PrefetchConfig{});

    /**
     * Train on a demand access and emit prefetch requests.
     *
     * @param pc          synthetic instruction pointer of the access.
     * @param line        line address demanded.
     * @param missed_l1   the access missed the L1 (MLC units train on the
     *                    L2-visible stream only).
     * @param out         requests are appended here.
     *
     * Defined inline with the trainers below, so the simulator's
     * per-access drain loop inlines them.
     */
    void observe(std::uint64_t pc, Addr line, bool missed_l1,
                 std::vector<PrefetchRequest> &out);

    void setConfig(const PrefetchConfig &cfg) { cfg_ = cfg; }
    const PrefetchConfig &config() const { return cfg_; }
    const PrefetchStats &stats() const { return stats_; }
    void resetStats() { stats_ = PrefetchStats{}; }

  private:
    /** DCU IP table entry: last line + stride + 2-bit confidence. */
    struct IpEntry
    {
        std::uint64_t tag = 0;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    /** MLC streamer entry: one per detected 4 KB page stream. */
    struct StreamEntry
    {
        std::uint64_t page = ~0ULL;
        Addr lastLine = 0;
        int direction = 0;
        unsigned confidence = 0;
    };

    static constexpr unsigned kIpEntries = 64;
    static constexpr unsigned kStreamEntries = 16;
    static constexpr unsigned kRecentLines = 8;
    static constexpr unsigned kStreamDegree = 2;
    /** Lines per 4 KB page. */
    static constexpr Addr kPageLines = 4096 / kLineBytes;

    void trainDcuIp(std::uint64_t pc, Addr line,
                    std::vector<PrefetchRequest> &out);
    void trainDcuStreamer(Addr line, std::vector<PrefetchRequest> &out);
    void trainMlcSpatial(Addr line, std::vector<PrefetchRequest> &out);
    void trainMlcStreamer(Addr line, std::vector<PrefetchRequest> &out);

    PrefetchConfig cfg_;
    PrefetchStats stats_;

    std::array<IpEntry, kIpEntries> ipTable_{};
    std::array<StreamEntry, kStreamEntries> streamTable_{};
    /** Recently demanded lines + per-line repeat counts (DCU streamer). */
    std::array<Addr, kRecentLines> recentLine_{};
    std::array<unsigned, kRecentLines> recentCount_{};
    unsigned recentNext_ = 0;
    /** Last L2-visible line (MLC spatial successive-line detector). */
    Addr lastMlcLine_ = ~0ULL;
};

inline void
PrefetcherBank::observe(std::uint64_t pc, Addr line, bool missed_l1,
                        std::vector<PrefetchRequest> &out)
{
    if (cfg_.dcuIp)
        trainDcuIp(pc, line, out);
    if (cfg_.dcuStreamer)
        trainDcuStreamer(line, out);
    // The MLC units sit behind the L1 and only see the miss stream.
    if (missed_l1) {
        if (cfg_.mlcSpatial)
            trainMlcSpatial(line, out);
        if (cfg_.mlcStreamer)
            trainMlcStreamer(line, out);
    }
}

inline void
PrefetcherBank::trainDcuIp(std::uint64_t pc, Addr line,
                           std::vector<PrefetchRequest> &out)
{
    IpEntry &e = ipTable_[pc % kIpEntries];
    if (e.tag != pc) {
        e.tag = pc;
        e.lastLine = line;
        e.stride = 0;
        e.confidence = 0;
        return;
    }
    const std::int64_t stride =
        static_cast<std::int64_t>(line) -
        static_cast<std::int64_t>(e.lastLine);
    if (stride != 0 && stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.confidence = 0;
    }
    e.stride = stride;
    e.lastLine = line;
    if (e.confidence >= 2 && stride != 0) {
        out.push_back(PrefetchRequest{
            static_cast<Addr>(static_cast<std::int64_t>(line) + stride),
            true});
        ++stats_.dcuIpIssued;
    }
}

inline void
PrefetcherBank::trainDcuStreamer(Addr line, std::vector<PrefetchRequest> &out)
{
    // Look for the line in the recent-access buffer; a second touch
    // within the buffer's lifetime triggers a next-line prefetch.
    for (unsigned i = 0; i < kRecentLines; ++i) {
        if (recentLine_[i] == line) {
            if (++recentCount_[i] == 2) {
                out.push_back(PrefetchRequest{line + 1, true});
                ++stats_.dcuStreamIssued;
            }
            return;
        }
    }
    recentLine_[recentNext_] = line;
    recentCount_[recentNext_] = 1;
    recentNext_ = (recentNext_ + 1) % kRecentLines;
}

inline void
PrefetcherBank::trainMlcSpatial(Addr line, std::vector<PrefetchRequest> &out)
{
    // Two successive lines trigger a fetch of the next adjacent line.
    if (lastMlcLine_ != ~0ULL && line == lastMlcLine_ + 1) {
        out.push_back(PrefetchRequest{line + 1, false});
        ++stats_.mlcSpatialIssued;
    }
    lastMlcLine_ = line;
}

inline void
PrefetcherBank::trainMlcStreamer(Addr line, std::vector<PrefetchRequest> &out)
{
    const std::uint64_t page = line / kPageLines;
    StreamEntry &e = streamTable_[page % kStreamEntries];
    if (e.page != page) {
        e.page = page;
        e.lastLine = line;
        e.direction = 0;
        e.confidence = 0;
        return;
    }
    const int dir = (line > e.lastLine) ? 1 : (line < e.lastLine ? -1 : 0);
    if (dir != 0 && dir == e.direction) {
        if (e.confidence < 3)
            ++e.confidence;
    } else if (dir != 0) {
        e.direction = dir;
        e.confidence = 1;
    }
    e.lastLine = line;
    if (e.confidence >= 2) {
        for (unsigned d = 1; d <= kStreamDegree; ++d) {
            const std::int64_t target =
                static_cast<std::int64_t>(line) + e.direction *
                static_cast<std::int64_t>(d);
            if (target < 0)
                break;
            // Streams do not cross 4 KB page boundaries (physical
            // prefetchers cannot).
            if (static_cast<Addr>(target) / kPageLines != page)
                break;
            out.push_back(PrefetchRequest{static_cast<Addr>(target), false});
            ++stats_.mlcStreamIssued;
        }
    }
}

} // namespace capart

#endif // CAPART_PREFETCH_PREFETCHERS_HH
