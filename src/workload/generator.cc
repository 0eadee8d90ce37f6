#include "workload/generator.hh"

#include <cmath>

#include "common/logging.hh"
#include "workload/access_ring.hh"

namespace capart
{

Insts
threadWorkShare(const AppParams &params, unsigned thread_idx,
                unsigned num_threads)
{
    capart_assert(num_threads >= 1);
    const unsigned used = std::min(num_threads, params.maxThreads);
    if (thread_idx >= used)
        return 0;

    const double total = static_cast<double>(params.lengthInsts);
    const double parallel = total * (1.0 - params.serialFraction);
    // Synchronization inflates every thread's parallel share as threads
    // are added (barriers, GC handshakes, lock traffic).
    const double inflation =
        1.0 + params.syncCost * static_cast<double>(used - 1);
    double share = parallel / static_cast<double>(used) * inflation;
    if (thread_idx == 0)
        share += total * params.serialFraction;
    return static_cast<Insts>(std::llround(share));
}

ThreadWorkload::ThreadWorkload(const AppParams &params, unsigned thread_idx,
                               unsigned num_threads, Addr base,
                               std::uint64_t seed)
    : params_(params), threadIdx_(thread_idx), rng_(seed)
{
    params.validate();
    totalWork_ = threadWorkShare(params, thread_idx, num_threads);

    // Lay the regions of every phase/pattern out consecutively from the
    // app base so distinct patterns never alias. Regions are shared by
    // all threads of the app; walking cursors start at a per-thread
    // random offset so streams from different threads interleave.
    Addr next = base;
    std::uint64_t pattern_pc = (static_cast<std::uint64_t>(base >> 20) << 8);
    double phase_cum = 0.0;
    for (const auto &phase : params.phases) {
        phaseStart_.push_back(static_cast<unsigned>(patterns_.size()));
        std::vector<double> cdf;
        double cum = 0.0;
        double chase_weight = 0.0;
        for (const auto &pat : phase.patterns) {
            Pattern st;
            st.kind = pat.kind;
            st.regionBase = next;
            st.lines = (pat.regionBytes + kLineBytes - 1) / kLineBytes;
            st.cursor =
                (rng_.below(st.lines) * kLineBytes) % pat.regionBytes;
            st.pc = pattern_pc++;
            st.regionBytes = pat.regionBytes;
            st.strideBytes = pat.strideBytes;
            st.writeBelow = Rng::chanceBelow(pat.writeFraction);
            st.jumpBelow = Rng::chanceBelow(pat.jumpProbability);
            next += pat.regionBytes + kLineBytes; // pad to avoid aliasing
            patterns_.push_back(st);
            cum += pat.weight;
            cdf.push_back(cum);
            if (pat.kind == PatternKind::PointerChase)
                chase_weight += pat.weight;
        }
        // Weighted choice draws r = k * 2^-53 * total and takes the
        // first pattern whose cumulative weight exceeds r. The rounded
        // product is monotone in k, so "r < cdf[i]" is "k < T" for the
        // least T at which it fails; binary search finds T exactly.
        Pattern *pats = patterns_.data() + phaseStart_.back();
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            std::uint64_t lo = 0;
            std::uint64_t hi = std::uint64_t{1} << 53;
            while (lo < hi) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (static_cast<double>(mid) * 0x1.0p-53 * cum < cdf[i])
                    lo = mid + 1;
                else
                    hi = mid;
            }
            pats[i].pickBelow = lo;
        }

        const double f = chase_weight / cum;
        phaseMlp_.push_back(1.0 / (f + (1.0 - f) / params.mlp));

        phase_cum += phase.instFraction;
        phaseCdf_.push_back(phase_cum);
    }
    phaseStart_.push_back(static_cast<unsigned>(patterns_.size()));
}

void
ThreadWorkload::restart()
{
    retired_ = 0;
    memCarry_ = 0.0;
}

unsigned
ThreadWorkload::phaseIndexAt(double app_progress) const
{
    for (unsigned i = 0; i < phaseCdf_.size(); ++i) {
        if (app_progress < phaseCdf_[i])
            return i;
    }
    return static_cast<unsigned>(phaseCdf_.size()) - 1;
}

const PhaseSpec &
ThreadWorkload::phaseAt(double app_progress) const
{
    return params_.phases[phaseIndexAt(app_progress)];
}

double
ThreadWorkload::effectiveMlp(double app_progress) const
{
    return phaseMlp_[phaseIndexAt(app_progress)];
}

unsigned
ThreadWorkload::pickPattern(const Pattern *pats, unsigned n)
{
    if (n == 1)
        return 0; // no draw
    // Thresholds rise with the index, so the patterns a draw is not
    // below form a prefix whose length is the pick; the last pattern
    // takes every draw the others do not.
    const std::uint64_t k = rng_.bits53();
    unsigned pick = 0;
    for (unsigned i = 0; i + 1 < n; ++i)
        pick += k >= pats[i].pickBelow;
    return pick;
}

MemAccess
ThreadWorkload::genAccess(Pattern &st)
{
    MemAccess acc;
    acc.pc = st.pc;
    acc.write = rng_.bits53() < st.writeBelow;

    switch (st.kind) {
      case PatternKind::Sequential:
      case PatternKind::Strided:
        // jumpBelow is 0 exactly when the probability is not positive,
        // and then no jump is drawn at all.
        if (st.jumpBelow != 0 && rng_.bits53() < st.jumpBelow)
            st.cursor = rng_.below(st.lines) * kLineBytes;
        acc.addr = st.regionBase + st.cursor;
        st.cursor += st.strideBytes;
        if (st.cursor >= st.regionBytes)
            st.cursor %= st.regionBytes;
        break;
      case PatternKind::RandomInRegion:
      case PatternKind::PointerChase: {
        // The word within the line is drawn before the line: the order
        // the reference streams were recorded with.
        const std::uint64_t word = rng_.below(kLineBytes / 8);
        const std::uint64_t line = rng_.below(st.lines);
        acc.addr = st.regionBase + line * kLineBytes + word * 8;
        break;
      }
      case PatternKind::StreamUncached:
        acc.addr = st.regionBase + st.cursor;
        st.cursor += st.strideBytes;
        if (st.cursor >= st.regionBytes)
            st.cursor %= st.regionBytes;
        acc.uncached = true;
        break;
    }
    return acc;
}

void
ThreadWorkload::emit(unsigned phase_idx, std::uint64_t n, MemAccess *dst)
{
    Pattern *pats = patterns_.data() + phaseStart_[phase_idx];
    const unsigned count = phaseStart_[phase_idx + 1] - phaseStart_[phase_idx];
    for (std::uint64_t i = 0; i < n; ++i)
        dst[i] = genAccess(pats[pickPattern(pats, count)]);
}

Insts
ThreadWorkload::runQuantum(Insts max_insts, double app_progress,
                           std::vector<MemAccess> &out)
{
    if (done() || max_insts == 0)
        return 0;

    const Insts remaining = totalWork_ - retired_;
    const Insts insts = std::min<Insts>(max_insts, remaining);
    const unsigned phase_idx = phaseIndexAt(app_progress);
    const PhaseSpec &phase = params_.phases[phase_idx];

    const double exact =
        static_cast<double>(insts) * phase.memRatio + memCarry_;
    auto accesses = static_cast<std::uint64_t>(exact);
    memCarry_ = exact - static_cast<double>(accesses);

    const std::size_t first = out.size();
    out.resize(first + accesses);
    emit(phase_idx, accesses, out.data() + first);

    retired_ += insts;
    return insts;
}

Insts
ThreadWorkload::runQuantum(Insts max_insts, double app_progress,
                           AccessRing &ring)
{
    if (done() || max_insts == 0)
        return 0;

    const Insts remaining = totalWork_ - retired_;
    const Insts insts = std::min<Insts>(max_insts, remaining);
    const unsigned phase_idx = phaseIndexAt(app_progress);
    const PhaseSpec &phase = params_.phases[phase_idx];

    const double exact =
        static_cast<double>(insts) * phase.memRatio + memCarry_;
    auto accesses = static_cast<std::uint64_t>(exact);
    memCarry_ = exact - static_cast<double>(accesses);

    // One claim for the whole known-size block; the emit loop writes
    // through a raw cursor with no growth checks. RNG consumption per
    // access is identical to the vector overload above.
    emit(phase_idx, accesses, ring.claim(accesses));
    ring.commit(accesses);

    retired_ += insts;
    return insts;
}

} // namespace capart
