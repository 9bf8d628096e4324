/**
 * @file
 * The benchmark's three workloads, driven through the simulator's
 * public API. Inputs (app mix, population, tape) are generated here
 * from the workload seed; the simulator only ever sees those inputs.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/** Outcome of one untraced repetition: set-up plus measured phase. */
struct RepResult
{
    double setupSec = 0.0;
    double measuredSec = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /**
     * Host throughput samples (ops/s): one per round of the sfork burst,
     * one per repetition of a fleet replay.
     */
    std::vector<double> rates;
    /** Virtual end-to-end metrics, by catalog name. */
    std::map<std::string, double> virt;
    /** Samples behind each virtual percentile metric. */
    std::map<std::string, std::size_t> samples;
    /** FNV-1a of the workload's virtual outputs. */
    std::string digest;
    std::vector<std::string> violations;
    /** Free-form lines for the report (tier mix, queueing). */
    std::vector<std::string> notes;
};

/** Outcome of the traced run. */
struct TracedResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Per-layer metrics, by catalog name. */
    std::map<std::string, double> layer;
    std::vector<std::string> violations;
    /** Free-form lines for the report (digest comparison, overhead). */
    std::vector<std::string> notes;
};

/** One untraced repetition of @p workload. */
RepResult runRep(const std::string &workload, std::uint64_t seed);

/** The traced run of @p workload, recording spans into @p rec. */
TracedResult runTraced(const std::string &workload, std::uint64_t seed,
                       SpanRecorder &rec);

/** Worker threads the fleet replay uses (fixed, at most nproc). */
int fleetWorkers();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
