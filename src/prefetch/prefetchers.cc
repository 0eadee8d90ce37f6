#include "prefetch/prefetchers.hh"

namespace capart
{

std::uint32_t
PrefetchConfig::toMsrBits() const
{
    std::uint32_t bits = 0;
    if (!mlcStreamer)
        bits |= 1u << 0;
    if (!mlcSpatial)
        bits |= 1u << 1;
    if (!dcuStreamer)
        bits |= 1u << 2;
    if (!dcuIp)
        bits |= 1u << 3;
    return bits;
}

PrefetchConfig
PrefetchConfig::fromMsrBits(std::uint32_t bits)
{
    PrefetchConfig cfg;
    cfg.mlcStreamer = !(bits & (1u << 0));
    cfg.mlcSpatial = !(bits & (1u << 1));
    cfg.dcuStreamer = !(bits & (1u << 2));
    cfg.dcuIp = !(bits & (1u << 3));
    return cfg;
}

PrefetcherBank::PrefetcherBank(const PrefetchConfig &cfg)
    : cfg_(cfg)
{
    recentLine_.fill(~0ULL);
    recentCount_.fill(0);
}

} // namespace capart
