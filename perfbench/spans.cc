#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

SpanRecorder::SpanRecorder() : origin_(HostClock::now())
{
    spans_.reserve(1u << 16);
}

std::size_t
SpanRecorder::begin(const char *name, std::uint64_t request)
{
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, request, parent, HostClock::now(), {}});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::end(std::size_t index)
{
    spans_[index].end = HostClock::now();
    // Spans nest strictly: the one ending is the innermost open one.
    open_.pop_back();
}

std::map<std::string, SpanStats>
SpanRecorder::summarize() const
{
    std::vector<double> child_sec(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_sec[static_cast<std::size_t>(s.parent)] +=
                std::chrono::duration<double>(s.end - s.start).count();
    }
    std::map<std::string, std::vector<double>> durations_us;
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double sec =
            std::chrono::duration<double>(s.end - s.start).count();
        durations_us[s.name].push_back(sec * 1e6);
        SpanStats &st = out[s.name];
        ++st.calls;
        st.totalSec += sec;
        st.selfSec += sec - child_sec[i];
    }
    for (auto &[name, us] : durations_us) {
        out[name].p50Us = percentile(us, 50.0);
        out[name].p99Us = percentile(us, 99.0);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    auto us = [&](HostClock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    os << "{\"traceEvents\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                      i == 0 ? "" : ",", s.name,
                      static_cast<unsigned long long>(s.request),
                      us(s.start), us(s.end) - us(s.start), i,
                      static_cast<long long>(s.parent));
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
