#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <map>
#include <string>
#include <vector>

/**
 * @file
 * Host-time spans recorded by the benchmark around each call it makes
 * into a simulator layer (harness construction, setup, Gpu::launch,
 * validate, runLitmusCell, artifact build). Spans are kept in memory
 * and written out when the run ends; a layer's self time is its span's
 * duration minus the time its child spans cover.
 */

namespace perfbench {

/** Seconds on the steady clock since the first call in the process. */
inline double
now()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

struct Span {
    /** Layer call, e.g. "launch"; a string literal. */
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same log; -1 for a root. */
    int parent = -1;
    /** Sweep point the span belongs to; -1 for pass-level spans. */
    int point = -1;
};

/**
 * The spans of one sweep point, or of the main thread of one
 * pass. A log is written by one thread at a time: the sweep worker
 * running its point, then the main thread after SweepRunner::run returns.
 */
class SpanLog {
  public:
    explicit SpanLog(int point = -1) : point_(point) {}

    int
    open(const char *name, int parent = -1)
    {
        spans_.push_back({name, now(), 0.0, parent, point_});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int index) { spans_[index].end = now(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span name (duration minus direct children). */
    void
    addSelfTimes(std::map<std::string, double> &out) const
    {
        std::vector<double> covered(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                covered[s.parent] += s.end - s.start;
        }
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] +=
                spans_[i].end - spans_[i].start - covered[i];
    }

    /** Summed duration of the spans called @p name. */
    double
    total(const char *name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_) {
            if (std::string(s.name) == name)
                sum += s.end - s.start;
        }
        return sum;
    }

  private:
    int point_;
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on scope exit, so a
 *  span ends even when the layer call throws. */
class SpanScope {
  public:
    SpanScope(SpanLog &log, const char *name, int parent = -1)
        : log_(log), index_(log.open(name, parent))
    {
    }
    ~SpanScope() { log_.close(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return index_; }

  private:
    SpanLog &log_;
    int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
