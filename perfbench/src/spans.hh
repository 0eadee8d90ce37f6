/**
 * @file
 * The benchmark's own span recorder. Spans are opened in the benchmark's
 * code around each call into a src/ layer (never inside src/), kept in
 * memory, and written as one Chrome trace when the run ends.
 *
 * A span's name is `<layer>.<call>`, where the layer is the src/
 * module the call enters (`sim.runPair`, `core.biased`, ...) or
 * `perfbench` for the benchmark's own checks. Its self time is its
 * duration minus the time its child spans cover; the per-layer self
 * times plus the unattributed remainder add up to the traced wall.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
double seconds(Clock::time_point from, Clock::time_point to);

/** One closed (or still open) span. */
struct Span
{
    std::string name;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    double startS = 0.0;
    double endS = 0.0;
    /** Seconds covered by direct children. */
    double childS = 0.0;
};

/** In-memory recorder; a disabled recorder costs one branch a span. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on);

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Duration so far (or final, after close) in seconds. */
        double elapsed() const;

      private:
        SpanRecorder &rec_;
        int idx_ = -1;
        Clock::time_point start_;
    };

    bool on() const { return on_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds summed per layer (name prefix before the dot). */
    std::map<std::string, double> selfByLayer() const;

    /** Total seconds spent in spans named exactly @p name. */
    double total(const std::string &name) const;

    /** Number of spans named exactly @p name. */
    std::size_t count(const std::string &name) const;

    /** Write every span as a Chrome trace_event JSON document. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
