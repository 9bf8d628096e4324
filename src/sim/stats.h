/**
 * @file
 * Counters, latency series and the unified metrics registry for
 * experiment reporting.
 */

#ifndef CATALYZER_SIM_STATS_H
#define CATALYZER_SIM_STATS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace catalyzer::sim {

/**
 * A series of latency samples with percentile and CDF queries.
 * Samples are stored in milliseconds.
 *
 * On an empty series every statistic (mean/min/max/percentile/cdfAt)
 * returns quiet NaN — there is no meaningful value to report, and NaN
 * propagates visibly instead of faking a 0 ms latency or an empty CDF.
 * JSON snapshots render non-finite values as null.
 */
class LatencySeries
{
  public:
    /** Record one sample. */
    void
    add(SimTime t)
    {
        samples_.push_back(t.toMs());
        sorted_valid_ = false;
    }

    void
    addMs(double ms)
    {
        samples_.push_back(ms);
        sorted_valid_ = false;
    }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; NaN if the series is empty. */
    double mean() const;
    /** Smallest sample; NaN if the series is empty. */
    double min() const;
    /** Largest sample; NaN if the series is empty. */
    double max() const;

    /**
     * p in [0, 100] (out-of-range panics); linear interpolation between
     * order statistics. NaN if the series is empty.
     */
    double percentile(double p) const;

    /** Fraction of samples <= x (empirical CDF); NaN if empty. */
    double cdfAt(double x) const;

    /** Sorted copy of the samples. */
    std::vector<double> sorted() const;

    const std::vector<double> &raw() const { return samples_; }

    void
    clear()
    {
        samples_.clear();
        sorted_cache_.clear();
        sorted_valid_ = false;
    }

  private:
    /** Sorted view of samples_, rebuilt lazily after mutations. */
    const std::vector<double> &sortedCache() const;

    std::vector<double> samples_;
    /**
     * Cache for percentile/cdfAt/sorted: reporting code asks for p50,
     * p90 and p99 back to back, and re-sorting the series for each
     * query is quadratic-ish in practice. Invalidated by any add.
     */
    mutable std::vector<double> sorted_cache_;
    mutable bool sorted_valid_ = false;
};

/**
 * Fixed-window time series over virtual time: samples land in the
 * window containing their timestamp (window i covers
 * [i*length, (i+1)*length)), each window backed by a LatencySeries so
 * per-window percentiles (the p99-over-time an SLO burn-rate needs) are
 * one call away. Windows are kept sparse and in first-touch order —
 * virtual clocks only move forward, so first-touch order is time order
 * for any single machine, and merge() re-sorts when fleets interleave.
 */
class WindowedHistogram
{
  public:
    explicit WindowedHistogram(SimTime window_length =
                                   SimTime::milliseconds(250.0))
        : window_length_(window_length)
    {}

    /** One window's samples. */
    struct Window
    {
        /** Window index: start time = index * windowLength(). */
        std::int64_t index = 0;
        LatencySeries series;
        double sum = 0.0;
    };

    /** Record @p value (unit chosen by the caller) at virtual @p now. */
    void record(SimTime now, double value);

    SimTime windowLength() const { return window_length_; }

    /**
     * Declare @p origin as window 0's start: samples are bucketed by
     * origin-relative time, so per-machine series whose virtual clocks
     * started at different absolute instants (priming, deployment)
     * still line up window-for-window when merged. Must be called
     * before any sample lands. An aligned series only merges with
     * other aligned series (and vice versa) — see merge().
     */
    void setOrigin(SimTime origin);

    /** True once setOrigin() declared a measurement origin. */
    bool originAligned() const { return origin_set_; }

    /** The declared origin (zero when unaligned). */
    SimTime origin() const { return origin_; }

    /**
     * Start of window @p index, relative to the origin (equals the
     * virtual-clock start for unaligned series).
     */
    SimTime
    windowStart(std::int64_t index) const
    {
        return SimTime::nanoseconds(index * window_length_.toNs());
    }

    /** Windows that received at least one sample, in time order. */
    const std::vector<Window> &windows() const;

    std::size_t totalCount() const { return total_count_; }
    bool empty() const { return windows_.empty(); }

    /**
     * Fold @p other into this series (fleet aggregation). Window
     * lengths must match and both sides must agree on origin
     * alignment (panic otherwise — a silent merge would misalign the
     * win.* series across machines); an empty destination adopts the
     * source's length and alignment. Two aligned series merge by
     * origin-relative index even when their absolute origins differ —
     * that is the point of alignment.
     */
    void merge(const WindowedHistogram &other);

    void clear();

  private:
    std::int64_t indexFor(SimTime now) const;

    SimTime window_length_;
    /** Window 0 start when origin_set_; see setOrigin(). */
    SimTime origin_;
    bool origin_set_ = false;
    /** Sparse, kept sorted by index lazily (see windows()). */
    mutable std::vector<Window> windows_;
    mutable bool sorted_valid_ = true;
    std::size_t total_count_ = 0;
};

/**
 * Unified metrics registry: named monotonically increasing counters
 * (page faults, syscalls redone, objects deserialized, ...) plus named
 * histogram metrics backed by LatencySeries (boot latency per system,
 * end-to-end invocation latency, ...). Cheap enough to leave enabled
 * everywhere.
 *
 * Each SimContext owns one registry (its machine's metrics). A
 * registry is single-writer — its machine's worker thread — and takes
 * no locks.
 */
class StatRegistry
{
  public:
    /** Add @p delta to counter @p name, creating it at zero if needed. */
    void incr(const std::string &name, std::int64_t delta = 1);

    /** Current value, or zero if never touched. */
    std::int64_t value(const std::string &name) const;

    /** Record one sample into histogram @p name, creating it if needed. */
    void observe(const std::string &name, SimTime t);
    void observeMs(const std::string &name, double ms);

    /** Get-or-create histogram @p name. */
    LatencySeries &histogram(const std::string &name);

    /** Look up a histogram; nullptr if never observed. */
    const LatencySeries *findHistogram(const std::string &name) const;

    /**
     * Record one sample into the fixed-window time series @p name at
     * virtual @p now (creating the series with the registry's current
     * default window length). Windowed series are a separate namespace
     * from the lifetime histograms: writeJson() never includes them, so
     * turning time-series collection on cannot change an existing
     * metrics snapshot byte for byte.
     */
    void observeWindowed(const std::string &name, SimTime now,
                         double value);

    /** Get-or-create windowed series @p name. */
    WindowedHistogram &windowed(const std::string &name);

    /** Look up a windowed series; nullptr if never observed. */
    const WindowedHistogram *findWindowed(const std::string &name) const;

    /** All windowed series, sorted by name. */
    const std::map<std::string, WindowedHistogram> &windowedSeries() const
    {
        return windowed_;
    }

    /** Window length used for windowed series created after this call. */
    void setWindowLength(SimTime length) { window_length_ = length; }
    SimTime windowLength() const { return window_length_; }

    /**
     * Align all windowed series created after this call to @p origin
     * (see WindowedHistogram::setOrigin). Existing windowed series are
     * dropped: the origin marks the start of the measurement frame,
     * and pre-origin samples (priming, deployment) belong to no
     * window of it.
     */
    void setWindowOrigin(SimTime origin);

    /** True once setWindowOrigin() declared a measurement origin. */
    bool windowOriginAligned() const { return window_origin_set_; }

    /** Reset every counter and histogram. */
    void clear();

    /** Snapshot of all counters, sorted by name. */
    const std::map<std::string, std::int64_t> &all() const
    {
        return counters_;
    }

    /** All histograms, sorted by name. */
    const std::map<std::string, LatencySeries> &histograms() const
    {
        return series_;
    }

    /**
     * JSON snapshot: {"counters": {name: value, ...}, "histograms":
     * {name: {count, mean, min, max, p50, p90, p99}, ...}} with
     * histogram samples in milliseconds. Non-finite statistics (empty
     * histograms) are emitted as null to keep the document valid JSON.
     */
    void writeJson(std::ostream &os) const;

    /**
     * JSON export of the windowed time series: {"default_window_ms": W,
     * "series": {name: {"window_ms": W, "windows": [{"index", "start_ms",
     * "count", "sum", "mean", "p50", "p99", "p999", "max"}, ...]}, ...}}.
     * Windows are in time order; empty windows are omitted (sparse).
     */
    void writeTimeSeriesJson(std::ostream &os) const;

  private:
    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, LatencySeries> series_;
    std::map<std::string, WindowedHistogram> windowed_;
    SimTime window_length_ = SimTime::milliseconds(250.0);
    SimTime window_origin_;
    bool window_origin_set_ = false;
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_STATS_H
