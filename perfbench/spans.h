/**
 * @file
 * Host-time span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions (never inside the simulator), kept in
 * memory, summarized per name (calls, p50/p99, total and self time) and
 * written out as a Chrome trace when the run ends. A span's parent is
 * the span open when it started; spans of one simulated operation share
 * its request id.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline double
secondsSince(HostClock::time_point start)
{
    return std::chrono::duration<double>(HostClock::now() - start).count();
}

/** Linear-interpolated percentile of @p xs; 0 if empty. */
double percentile(std::vector<double> xs, double p);

/** Per-name summary of recorded spans. */
struct SpanStats
{
    std::size_t calls = 0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double totalSec = 0.0;
    /** Total minus the time covered by child spans. */
    double selfSec = 0.0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span; returns its index for end(). */
    std::size_t begin(const char *name, std::uint64_t request = 0);
    void end(std::size_t index);

    std::size_t size() const { return spans_.size(); }
    std::map<std::string, SpanStats> summarize() const;

    /** Write every span as a Chrome trace_event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t request;
        std::int64_t parent; ///< index, -1 for a root
        HostClock::time_point start;
        HostClock::time_point end;
    };

    HostClock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::uint64_t request = 0)
        : rec_(rec), index_(rec ? rec->begin(name, request) : 0)
    {}
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    std::size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
