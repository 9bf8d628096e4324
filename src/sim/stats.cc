#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>

#include "sim/json.h"
#include "sim/logging.h"

namespace catalyzer::sim {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

} // namespace

void
StatRegistry::incr(const std::string &name, std::int64_t delta)
{
    counters_[name] += delta;
}

std::int64_t
StatRegistry::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatRegistry::observe(const std::string &name, SimTime t)
{
    series_[name].add(t);
}

void
StatRegistry::observeMs(const std::string &name, double ms)
{
    series_[name].addMs(ms);
}

LatencySeries &
StatRegistry::histogram(const std::string &name)
{
    return series_[name];
}

const LatencySeries *
StatRegistry::findHistogram(const std::string &name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

void
StatRegistry::observeWindowed(const std::string &name, SimTime now,
                              double value)
{
    windowed(name).record(now, value);
}

WindowedHistogram &
StatRegistry::windowed(const std::string &name)
{
    auto it = windowed_.find(name);
    if (it == windowed_.end()) {
        it = windowed_.emplace(name, WindowedHistogram(window_length_))
                 .first;
        if (window_origin_set_)
            it->second.setOrigin(window_origin_);
    }
    return it->second;
}

void
StatRegistry::setWindowOrigin(SimTime origin)
{
    windowed_.clear();
    window_origin_ = origin;
    window_origin_set_ = true;
}

const WindowedHistogram *
StatRegistry::findWindowed(const std::string &name) const
{
    auto it = windowed_.find(name);
    return it == windowed_.end() ? nullptr : &it->second;
}

void
StatRegistry::clear()
{
    counters_.clear();
    series_.clear();
    windowed_.clear();
}

void
StatRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, series] : series_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"unit\": \"ms\", \"count\": " << series.count();
        const struct
        {
            const char *key;
            double value;
        } stats[] = {
            {"mean", series.mean()},   {"min", series.min()},
            {"max", series.max()},     {"p50", series.percentile(50)},
            {"p90", series.percentile(90)},
            {"p99", series.percentile(99)},
        };
        for (const auto &s : stats) {
            os << ", \"" << s.key << "\": ";
            writeJsonNumber(os, s.value);
        }
        os << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
StatRegistry::writeTimeSeriesJson(std::ostream &os) const
{
    os << "{\n  \"default_window_ms\": ";
    writeJsonNumber(os, window_length_.toMs());
    os << ",\n  \"series\": {";
    bool first = true;
    for (const auto &[name, hist] : windowed_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"window_ms\": ";
        writeJsonNumber(os, hist.windowLength().toMs());
        os << ", \"windows\": [";
        bool wfirst = true;
        for (const auto &w : hist.windows()) {
            os << (wfirst ? "\n" : ",\n") << "      {\"index\": "
               << w.index << ", \"start_ms\": ";
            writeJsonNumber(os, hist.windowStart(w.index).toMs());
            os << ", \"count\": " << w.series.count() << ", \"sum\": ";
            writeJsonNumber(os, w.sum);
            const struct
            {
                const char *key;
                double value;
            } stats[] = {
                {"mean", w.series.mean()},
                {"p50", w.series.percentile(50)},
                {"p99", w.series.percentile(99)},
                {"p999", w.series.percentile(99.9)},
                {"max", w.series.max()},
            };
            for (const auto &s : stats) {
                os << ", \"" << s.key << "\": ";
                writeJsonNumber(os, s.value);
            }
            os << "}";
            wfirst = false;
        }
        os << "\n    ]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
WindowedHistogram::record(SimTime now, double value)
{
    const std::int64_t index = indexFor(now);
    // The common case appends to the latest window (single-machine
    // virtual time never goes backwards).
    if (windows_.empty() || windows_.back().index < index) {
        windows_.push_back(Window{index, {}, 0.0});
    } else if (windows_.back().index != index) {
        // Out-of-order timestamp (merged fleets replaying): find or
        // insert the window, keeping lazy sorting honest.
        Window *hit = nullptr;
        for (auto &w : windows_) {
            if (w.index == index) {
                hit = &w;
                break;
            }
        }
        if (hit == nullptr) {
            windows_.push_back(Window{index, {}, 0.0});
            sorted_valid_ = false;
        } else {
            hit->series.addMs(value);
            hit->sum += value;
            ++total_count_;
            return;
        }
    }
    windows_.back().series.addMs(value);
    windows_.back().sum += value;
    ++total_count_;
}

const std::vector<WindowedHistogram::Window> &
WindowedHistogram::windows() const
{
    if (!sorted_valid_) {
        std::sort(windows_.begin(), windows_.end(),
                  [](const Window &a, const Window &b) {
                      return a.index < b.index;
                  });
        sorted_valid_ = true;
    }
    return windows_;
}

void
WindowedHistogram::setOrigin(SimTime origin)
{
    if (total_count_ != 0)
        panic("WindowedHistogram::setOrigin: %zu samples already "
              "recorded against the old origin",
              total_count_);
    origin_ = origin;
    origin_set_ = true;
}

void
WindowedHistogram::merge(const WindowedHistogram &other)
{
    if (empty() && total_count_ == 0) {
        window_length_ = other.window_length_;
        if (!origin_set_) {
            origin_ = other.origin_;
            origin_set_ = other.origin_set_;
        }
    }
    if (window_length_ != other.window_length_)
        panic("WindowedHistogram::merge: window lengths differ "
              "(%.3f ms vs %.3f ms)",
              window_length_.toMs(), other.window_length_.toMs());
    if (origin_set_ != other.origin_set_)
        panic("WindowedHistogram::merge: origin-aligned series merged "
              "with unaligned series (windows would misalign)");
    for (const auto &w : other.windows()) {
        Window *hit = nullptr;
        for (auto &mine : windows_) {
            if (mine.index == w.index) {
                hit = &mine;
                break;
            }
        }
        if (hit == nullptr) {
            windows_.push_back(Window{w.index, {}, 0.0});
            hit = &windows_.back();
            sorted_valid_ = false;
        }
        for (double v : w.series.raw()) {
            hit->series.addMs(v);
            hit->sum += v;
            ++total_count_;
        }
    }
    // Re-establish order for deterministic exports.
    (void)windows();
}

void
WindowedHistogram::clear()
{
    windows_.clear();
    sorted_valid_ = true;
    total_count_ = 0;
}

std::int64_t
WindowedHistogram::indexFor(SimTime now) const
{
    if (window_length_.toNs() <= 0)
        panic("WindowedHistogram: non-positive window length");
    if (origin_set_ && now < origin_)
        panic("WindowedHistogram: sample at %lld ns predates the "
              "declared origin %lld ns",
              static_cast<long long>(now.toNs()),
              static_cast<long long>(origin_.toNs()));
    return (now.toNs() - origin_.toNs()) / window_length_.toNs();
}

double
LatencySeries::mean() const
{
    if (samples_.empty())
        return kNaN;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

double
LatencySeries::min() const
{
    if (samples_.empty())
        return kNaN;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
LatencySeries::max() const
{
    if (samples_.empty())
        return kNaN;
    return *std::max_element(samples_.begin(), samples_.end());
}

const std::vector<double> &
LatencySeries::sortedCache() const
{
    if (!sorted_valid_) {
        sorted_cache_ = samples_;
        std::sort(sorted_cache_.begin(), sorted_cache_.end());
        sorted_valid_ = true;
    }
    return sorted_cache_;
}

double
LatencySeries::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        panic("LatencySeries::percentile: p=%f out of range", p);
    if (samples_.empty())
        return kNaN;
    const auto &s = sortedCache();
    if (s.size() == 1)
        return s.front();
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= s.size())
        return s.back();
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

double
LatencySeries::cdfAt(double x) const
{
    if (samples_.empty())
        return kNaN;
    const auto &s = sortedCache();
    const auto below =
        std::upper_bound(s.begin(), s.end(), x) - s.begin();
    return static_cast<double>(below) / static_cast<double>(s.size());
}

std::vector<double>
LatencySeries::sorted() const
{
    return sortedCache();
}

} // namespace catalyzer::sim
