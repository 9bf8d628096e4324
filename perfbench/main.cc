/**
 * @file
 * The perfbench program: one workload per invocation, untraced (the
 * end-to-end metrics) or traced (the per-layer metrics).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--commit ID] [--spans-dir DIR]
 *   perfbench --list            the metric and workload catalog
 *   perfbench --benchmark-json  BENCHMARK.json, generated from it
 *
 * The untraced run repeats set-up + measured phase (one full tape) until
 * S host seconds have passed and reports host metrics as medians:
 * throughput over sfork rounds or fleet repetitions, set-up time over
 * repetitions. Every repetition must reproduce the same virtual outputs.
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit code is non-zero when any correctness check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** A run stops starting repetitions once this many seconds have gone. */
constexpr double kHardLimitSec = 120.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = kRunSeconds;
    int trace = 0;
    std::string commit = "unknown";
    std::string spansDir;
    bool list = false;
    bool benchmarkJson = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--spans-dir DIR]"
                 "\n       perfbench --list | --benchmark-json\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list") {
            a.list = true;
            continue;
        }
        if (flag == "--benchmark-json") {
            a.benchmarkJson = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        else if (flag == "--trace")
            a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        else if (flag == "--commit")
            a.commit = value;
        else if (flag == "--spans-dir")
            a.spansDir = value;
        else
            usage(("unknown flag " + flag).c_str());
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    return a;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> xs)
{
    return percentile(xs, 50.0);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
betterName(Better b)
{
    return b == Better::Lower ? "lower" : "higher";
}

void
printList()
{
    std::printf("%-34s %-9s %-7s %-9s %-9s %-6s %-5s %s\n", "metric", "kind",
                "clock", "layer", "unit", "better", "bound", "meaning");
    for (const MetricDef &m : kMetrics) {
        char bound[16] = "-";
        if (m.kind == Kind::EndToEnd)
            std::snprintf(bound, sizeof bound, "%g", m.bound);
        std::printf("%-34s %-9s %-7s %-9s %-9s %-6s %-5s %s\n", m.name,
                    m.kind == Kind::EndToEnd ? "e2e" : "per-layer",
                    clockName(m.clock), m.layer, m.unit, betterName(m.better),
                    bound, m.meaning);
    }
    std::printf("\nworkloads (run_seconds %d):\n", kRunSeconds);
    for (const WorkloadDef &w : kWorkloads)
        std::printf("  %-15s %s\n", w.name, w.why);
}

void
printBenchmarkJson()
{
    std::printf("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
                "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": %d,\n"
                "  \"workloads\": [",
                kRunSeconds);
    const char *sep = "\n";
    for (const WorkloadDef &w : kWorkloads) {
        std::printf("%s    {\"name\": \"%s\", \"why\": \"%s\"}", sep, w.name,
                    w.why);
        sep = ",\n";
    }
    for (Kind kind : {Kind::EndToEnd, Kind::PerLayer}) {
        std::printf("\n  ],\n  \"%s\": [",
                    kind == Kind::EndToEnd ? "end_to_end" : "per_layer");
        sep = "\n";
        for (const MetricDef &m : kMetrics) {
            if (m.kind != kind)
                continue;
            std::printf("%s    {\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\"",
                        sep, m.name, m.unit, betterName(m.better));
            if (kind == Kind::EndToEnd)
                std::printf(", \"bound\": %g", m.bound);
            std::printf("}");
            sep = ",\n";
        }
    }
    std::printf("\n  ]\n}\n");
}

/**
 * Print @p values (catalog order, one kind) as report lines and return
 * the JSON "metrics" object. A metric the run did not produce, or a
 * non-finite value, is a failed check.
 */
std::string
emitMetrics(Kind kind, const std::map<std::string, double> &values,
            const std::map<std::string, std::size_t> &samples,
            std::vector<std::string> &violations)
{
    std::string json = "{";
    for (const MetricDef &m : kMetrics) {
        if (m.kind != kind)
            continue;
        auto it = values.find(m.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            violations.push_back(std::string("metric not produced: ") +
                                 m.name);
            continue;
        }
        std::string note = clockName(m.clock);
        auto n = samples.find(m.name);
        if (n != samples.end()) {
            note += ", n=" + std::to_string(n->second);
            // A percentile needs ten samples beyond it.
            const char *p = std::strstr(m.name, "_p99_");
            if (p != nullptr && n->second < 1000)
                note += " (too few samples for p99)";
        }
        std::printf("  %-34s %16.6f %-9s [%s]\n", m.name, it->second, m.unit,
                    note.c_str());
        json += std::string(json.size() > 1 ? ", " : "") + "\"" + m.name +
                "\": {\"value\": " + num(it->second) + ", \"unit\": \"" +
                m.unit + "\"}";
    }
    return json + "}";
}

int
workersFor(const std::string &workload)
{
    return workload == "fleet-flash" ? fleetWorkers() : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.list) {
        printList();
        return 0;
    }
    if (args.benchmarkJson) {
        printBenchmarkJson();
        return 0;
    }
    const bool known = std::any_of(
        std::begin(kWorkloads), std::end(kWorkloads),
        [&](const WorkloadDef &w) { return args.workload == w.name; });
    if (!known)
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.seconds < 1 || (args.trace != 0 && args.trace != 1))
        usage("--seconds must be >= 1 and --trace 0 or 1");

    std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    std::printf("  commit=%s nproc=%u build=%s compiler=%s workers=%d\n",
                args.commit.c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                workersFor(args.workload));

    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> violations;
    std::string metrics_json;

    if (args.trace == 0) {
        std::vector<RepResult> reps;
        const auto start = HostClock::now();
        double longest = 0.0;
        do {
            const auto rep_start = HostClock::now();
            reps.push_back(runRep(args.workload, args.seed));
            longest = std::max(longest, secondsSince(rep_start));
            const RepResult &r = reps.back();
            std::printf("  rep %zu: setup %.3f s, measured %.3f s, %zu ops, "
                        "%.1f ops/s, digest %s\n",
                        reps.size(), r.setupSec, r.measuredSec, r.attempted,
                        static_cast<double>(r.attempted) / r.measuredSec,
                        r.digest.c_str());
        } while (secondsSince(start) < args.seconds &&
                 secondsSince(start) + longest < kHardLimitSec);

        std::vector<double> rates, setups;
        for (const RepResult &r : reps) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &v : r.violations)
                violations.push_back(v);
            rates.insert(rates.end(), r.rates.begin(), r.rates.end());
            setups.push_back(r.setupSec);
            if (r.digest != reps.front().digest) {
                violations.push_back("virtual outputs differ between "
                                     "repetitions of one seed");
                failed += r.attempted;
            }
        }
        std::printf("  ops/s samples: n=%zu min %.1f q1 %.1f median %.1f q3 "
                    "%.1f max %.1f\n",
                    rates.size(), percentile(rates, 0.0),
                    percentile(rates, 25.0), percentile(rates, 50.0),
                    percentile(rates, 75.0), percentile(rates, 100.0));
        std::map<std::string, double> values = reps.front().virt;
        std::map<std::string, std::size_t> samples = reps.front().samples;
        values["sim_ops_per_s"] = median(rates);
        samples["sim_ops_per_s"] = rates.size();
        samples["setup_s"] = reps.size();
        values["setup_s"] = median(setups);
        values["peak_rss_mib"] = peakRssMiB();
        values["ops_ok_frac"] =
            attempted > 0 ? 1.0 - static_cast<double>(
                                      std::min(failed, attempted)) /
                                      static_cast<double>(attempted)
                          : 0.0;
        std::printf("end-to-end metrics (%zu repetitions; virtual metrics "
                    "from repetition 1):\n",
                    reps.size());
        metrics_json = emitMetrics(Kind::EndToEnd, values, samples,
                                   violations);
        for (const std::string &note : reps.front().notes)
            std::printf("%s\n", note.c_str());
        std::printf("virtual-output digest: %s\n",
                    reps.front().digest.c_str());
    } else {
        SpanRecorder rec;
        const TracedResult t = runTraced(args.workload, args.seed, rec);
        attempted = t.attempted;
        failed = t.failed;
        violations = t.violations;
        std::printf("spans (host time):\n  %-22s %9s %12s %12s %12s %12s\n",
                    "span", "calls", "p50_us", "p99_us", "total_s",
                    "self_s");
        for (const auto &[name, st] : rec.summarize())
            std::printf("  %-22s %9zu %12.3f %12.3f %12.6f %12.6f\n",
                        name.c_str(), st.calls, st.p50Us, st.p99Us,
                        st.totalSec, st.selfSec);
        for (const std::string &note : t.notes)
            std::printf("%s\n", note.c_str());
        std::printf("per-layer metrics:\n");
        metrics_json = emitMetrics(Kind::PerLayer, t.layer, {}, violations);
        if (!args.spansDir.empty()) {
            const std::string path = args.spansDir + "/" + args.workload +
                                     "-seed" + std::to_string(args.seed) +
                                     ".trace.json";
            if (rec.writeChromeTrace(path))
                std::printf("wrote %zu spans to %s\n", rec.size(),
                            path.c_str());
            else
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
        }
    }

    // A failed check may invalidate more operations than were attempted.
    failed = std::min(failed, attempted);
    const bool correct = violations.empty() && failed == 0;
    for (const std::string &v : violations)
        std::printf("CHECK FAILED: %s\n", v.c_str());
    std::printf("checks: %s (%zu attempted, %zu failed)\n",
                correct ? "ok" : "FAILED", attempted, failed);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json.c_str());
    return correct ? 0 : 1;
}
