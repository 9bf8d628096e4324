#include "load/driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>

#include "sim/event_queue.h"
#include "sim/executor.h"
#include "sim/json.h"
#include "sim/logging.h"

namespace catalyzer::load {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/**
 * Fleet-replay trace ids are pinned, not allocated: request i of the
 * tape always traces under kFleetTraceIdBase + i, so the fleet trace
 * export is byte-identical no matter which worker thread served the
 * request first. The base keeps the pinned range disjoint from lazily
 * allocated ids (which count up from 1).
 */
constexpr trace::TraceId kFleetTraceIdBase = 1ull << 48;

/**
 * Priming invocations are pinned too (machine-major, function-minor),
 * or the process-global lazy allocator would hand a second run in the
 * same process different ids than the first and the exported traces of
 * otherwise identical runs would not compare equal. Machine m's k-th
 * priming invoke traces under base + m * (population + workflow
 * functions) + k.
 */
constexpr trace::TraceId kFleetPrimeTraceIdBase = 1ull << 47;

/** Round-trip double formatting for the determinism dump. */
void
writeExactNumber(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
writeSeries(std::ostream &os, const sim::LatencySeries &series)
{
    os << "[";
    bool first = true;
    for (double ms : series.raw()) {
        os << (first ? "" : ",");
        writeExactNumber(os, ms);
        first = false;
    }
    os << "]";
}

void
writeWindows(std::ostream &os, const sim::WindowedHistogram &hist)
{
    os << "{\"window_ns\": " << hist.windowLength().toNs()
       << ", \"windows\": [";
    bool first = true;
    for (const auto &w : hist.windows()) {
        os << (first ? "" : ",") << "{\"index\": " << w.index
           << ", \"samples\": ";
        writeSeries(os, w.series);
        os << "}";
        first = false;
    }
    os << "]}";
}

} // namespace

FleetReport
FleetDriver::run(const TrafficSpec &traffic, const FleetRunConfig &config)
{
    const std::vector<FleetArrival> stream =
        generateFleetStream(population_, traffic);

    FleetAutoscaler scaler(cluster_, population_, config.policy);
    FleetReport report;
    report.e2eMsWindows = sim::WindowedHistogram(config.tenantWindow);
    report.bootMsWindows = sim::WindowedHistogram(config.tenantWindow);

    // Deployment is control-plane work (image build, registry write);
    // production fleets do it long before traffic, so charge it before
    // the measured window opens: start[] is captured afterwards.
    population_.deployTo(cluster_);

    const std::size_t machines = cluster_.machineCount();

    // Workflow arrivals in the tape need their DAG specs; detect up
    // front so both the priming pass and the replay mode can react.
    bool has_workflows = false;
    for (const FleetArrival &arrival : stream) {
        if (arrival.workflow >= 0) {
            has_workflows = true;
            if (config.workflows.empty())
                sim::fatal("FleetDriver: workflow arrivals in the tape "
                           "but no workflow specs configured");
        }
    }
    // Workflow stage functions prime alongside the population's
    // (sorted + deduped, so the pinned prime-id sequence is a pure
    // function of the config — and unchanged when workflows are off).
    std::vector<std::string> wf_fns;
    if (has_workflows) {
        for (const workflow::WorkflowSpec &spec : config.workflows) {
            for (const workflow::StageSpec &stage : spec.stages)
                wf_fns.push_back(stage.function);
        }
        std::sort(wf_fns.begin(), wf_fns.end());
        wf_fns.erase(std::unique(wf_fns.begin(), wf_fns.end()),
                     wf_fns.end());
    }

    const int threads = config.simThreads > 0
                            ? config.simThreads
                            : sim::ParallelExecutor::threadsFromEnv(1);
    const sim::ParallelExecutor exec(threads);
    // A workflow stage may land on any machine and moves state regions
    // across the fabric mid-request, so a workflow tape is coupled no
    // matter what the fabric config says.
    const bool share_nothing = cluster_.shareNothing() && !has_workflows;

    if (config.primeImages) {
        // Machine m's priming invokes trace under the ids a serial
        // machine-major loop would hand out, so the pinned sequence is
        // the same whether or not the machines prime concurrently.
        const std::size_t per_machine = population_.size() + wf_fns.size();
        auto primeMachine = [&](std::size_t m) {
            trace::TraceId prime_id =
                kFleetPrimeTraceIdBase +
                static_cast<trace::TraceId>(m * per_machine);
            platform::ServerlessPlatform &plat = cluster_.platform(m);
            sandbox::Machine &mach = cluster_.machine(m);
            for (std::size_t i = 0; i < population_.size(); ++i)
                plat.invoke(population_.fn(i).name,
                            trace::TraceContext(mach.tracer(),
                                                mach.ctx().clock(), 0,
                                                prime_id++));
            for (const std::string &fn : wf_fns)
                plat.invoke(fn, trace::TraceContext(mach.tracer(),
                                                    mach.ctx().clock(), 0,
                                                    prime_id++));
            // Drop the priming instances: the run starts with built
            // images but zero warm capacity under either policy.
            plat.expireIdle(sim::SimTime::milliseconds(0.001));
        };
        // Priming only touches the primed machine, so a share-nothing
        // fleet (where image builds consult no shared directory) primes
        // its machines concurrently; coupled fleets go in index order.
        if (share_nothing) {
            exec.forEach(machines, primeMachine);
        } else {
            for (std::size_t m = 0; m < machines; ++m)
                primeMachine(m);
        }
    }

    std::vector<sim::SimTime> start(machines);
    for (std::size_t m = 0; m < machines; ++m)
        start[m] = cluster_.machine(m).ctx().clock().now();
    // Windowed series start their measurement frame here, so win.*
    // windows line up run-relative across machines whose clocks
    // diverged during deploy/priming.
    cluster_.alignWindowOrigins();

    // Machines may enter the run with different clock readings (deploys
    // and template prep already charged); replay is relative, so machine
    // m's image of virtual time t is start[m] + t. Clocks only move
    // forward: a machine still serving a back-to-back burst simply lags
    // the stream and queues, exactly like WorkloadDriver.
    auto advanceMachineTo = [&](std::size_t m, double t) {
        sim::VirtualClock &clock = cluster_.machine(m).ctx().clock();
        const sim::SimTime target = start[m] + sim::SimTime::seconds(t);
        if (clock.now() < target)
            clock.advance(target - clock.now());
    };

    double resident_sum = 0.0;
    std::size_t resident_samples = 0;
    double last_sample_t = 0.0;

    // Policy tick barrier: every machine reaches the boundary before
    // the autoscaler looks at the fleet, so keep-alive ages, EWMA rates
    // and memory pressure are computed against one consistent instant.
    auto runTick = [&](double t_tick) {
        for (std::size_t m = 0; m < machines; ++m)
            advanceMachineTo(m, t_tick);
        scaler.tick(sim::SimTime::seconds(t_tick));
        const double mib =
            static_cast<double>(scaler.fleetResidentBytes()) / kMiB;
        report.residentMiBSeconds += mib * (t_tick - last_sample_t);
        last_sample_t = t_tick;
        resident_sum += mib;
        ++resident_samples;
        report.peakResidentMiB = std::max(report.peakResidentMiB, mib);
    };

    const double tick = config.policy.policyTick.toSec();
    if (tick <= 0.0)
        sim::fatal("FleetDriver: non-positive policy tick");
    double next_tick = tick;

    //
    // Discrete-event replay. The policy tick is the epoch barrier: the
    // autoscaler already requires every machine at the boundary before
    // it looks at the fleet, so arrivals between consecutive ticks form
    // an epoch that is (a) routed up front in stream order against
    // projected loads, (b) served by draining per-machine event queues
    // — concurrently on a share-nothing fleet — and (c) folded into the
    // report and the autoscaler in stream order. Routing and folding
    // never run on worker threads, and serving only touches the routed
    // machine, so the report is byte-identical for any thread count.
    //
    workflow::WorkflowEngine engine(
        cluster_, workflow::WorkflowOptions{config.workflowLocalityAware});

    // Per-arrival outcome slots, indexed by stream position.
    struct Outcome
    {
        platform::InvocationRecord record;
        sim::SimTime queued;
        std::size_t machine = 0;
        std::size_t expired = 0;
        workflow::WorkflowResult wf;
        bool isWorkflow = false;
    };
    std::vector<Outcome> outcomes(stream.size());

    // One queue per machine; release times are *run-relative* (machine
    // m realizes virtual time t at start[m] + t), so queue horizons are
    // comparable across machines with different clock offsets.
    std::vector<sim::EventQueue> queues(machines);
    // A share-nothing fleet has no cross-machine interaction at all:
    // the conservative horizon clamps straight to the epoch barrier and
    // each epoch drains in one round. Coupled fleets (remote-sfork
    // lending, P2P image streams mutate lender state mid-boot) never
    // reach the queues — they replay inline in stream order below.
    sim::ConservativeScheduler scheduler(
        queues, sim::ConservativeScheduler::unboundedLookahead());

    // Serve tape position i on its routed machine. Runs on a worker
    // thread for share-nothing fleets: everything it touches is local
    // to the routed machine except the outcome slot, which is its own.
    auto serveOne = [&](std::size_t i) {
        const FleetArrival &arrival = stream[i];
        const FleetFunction &fn = population_.fn(arrival.fn);
        Outcome &out = outcomes[i];
        const std::size_t target = out.machine;
        platform::ServerlessPlatform &plat = cluster_.platform(target);
        // No-op after the upfront deploy; covers callers that drive a
        // partially-deployed cluster.
        population_.deployTo(plat, fn);
        advanceMachineTo(target, arrival.atSec);

        // If the machine's clock leads the arrival it was still busy
        // with earlier requests when this one landed: the lead is the
        // time the request waits in queue before service starts.
        const sim::SimTime arrive =
            start[target] + sim::SimTime::seconds(arrival.atSec);
        const sim::SimTime now_on_target =
            cluster_.machine(target).ctx().clock().now();
        out.queued = now_on_target > arrive ? now_on_target - arrive
                                            : sim::SimTime::zero();

        if (config.perArrivalExpiry &&
            config.policy.keepAliveTtl > sim::SimTime::zero())
            out.expired = plat.expireIdle(config.policy.keepAliveTtl);

        sandbox::Machine &m = cluster_.machine(target);
        const trace::TraceContext pinned(
            m.tracer(), m.ctx().clock(), 0,
            kFleetTraceIdBase + static_cast<trace::TraceId>(i));
        out.record =
            cluster_.invokeOn(target, fn.name, pinned).record;
    };

    // Serve a workflow arrival: the DAG may start on any machine, so
    // every clock aligns with the arrival first and the engine's
    // run-relative frame opens exactly there. Trace id pinned like any
    // other tape position.
    auto serveWorkflow = [&](std::size_t i) {
        const FleetArrival &arrival = stream[i];
        Outcome &out = outcomes[i];
        out.isWorkflow = true;
        for (std::size_t m = 0; m < machines; ++m)
            advanceMachineTo(m, arrival.atSec);
        const workflow::WorkflowSpec &spec = config.workflows
            [static_cast<std::size_t>(arrival.workflow) %
             config.workflows.size()];
        sandbox::Machine &m0 = cluster_.machine(0);
        out.wf = engine.run(
            spec,
            trace::TraceContext(
                m0.tracer(), m0.ctx().clock(), 0,
                kFleetTraceIdBase + static_cast<trace::TraceId>(i)));
    };

    // Stream-order fold of one served epoch: autoscaler bookkeeping
    // (commutative counters, consumed only at the next tick) and the
    // report accumulation.
    auto foldOne = [&](std::size_t i) {
        const FleetArrival &arrival = stream[i];
        const Outcome &out = outcomes[i];
        if (out.isWorkflow) {
            // Workflows score on their own series: stage invocations
            // are not caller-visible requests, and the autoscaler's
            // per-function rate model has no row for a DAG.
            ++report.workflowRuns;
            report.chainHopsLocal += out.wf.hopsLocal;
            report.chainHopsRemote += out.wf.hopsRemote;
            report.chainTransferBytes += out.wf.transferBytes;
            report.chainE2e.add(out.wf.e2e);
            return;
        }
        const FleetFunction &fn = population_.fn(arrival.fn);
        scaler.observeArrival(arrival.fn, out.machine);
        scaler.afterInvoke(arrival.fn, out.machine, out.record);
        report.expired += out.expired;

        const sim::SimTime at = sim::SimTime::seconds(arrival.atSec);
        ++report.requests;
        if (out.record.reusedInstance) {
            ++report.reuses;
        } else {
            ++report.boots;
            report.boot.add(out.record.bootLatency);
            report.bootMsWindows.record(at,
                                        out.record.bootLatency.toMs());
        }
        ++report.tierCounts[out.record.tierServed];
        const sim::SimTime sojourn = out.queued + out.record.endToEnd();
        report.endToEnd.add(sojourn);
        report.queueWait.add(out.queued);
        report.e2eMsWindows.record(at, sojourn.toMs());
        report.busySeconds += out.record.endToEnd().toSec();

        const std::string tenant = Population::tenantName(fn.tenant);
        auto [it, fresh] = report.tenantE2eMs.try_emplace(
            tenant, sim::WindowedHistogram(config.tenantWindow));
        (void)fresh;
        it->second.record(at, sojourn.toMs());
        ++report.tenantRequests[tenant];
    };

    std::size_t pos = 0;
    while (pos < stream.size()) {
        // Ticks that precede the next arrival.
        while (next_tick <= stream[pos].atSec) {
            runTick(next_tick);
            next_tick += tick;
        }
        // The epoch: arrivals strictly before the pending tick.
        std::size_t end_pos = pos;
        while (end_pos < stream.size() &&
               stream[end_pos].atSec < next_tick)
            ++end_pos;

        if (share_nothing) {
            // Route the whole epoch in stream order against projected
            // loads (epoch-start snapshot plus one instance per routed
            // request): placement cannot depend on worker-thread
            // timing. Within an epoch a share-nothing fleet's template
            // holders are fixed (only the autoscaler publishes them,
            // at the tick), so only the load projection approximates.
            std::vector<std::size_t> loads = cluster_.instanceLoads();
            for (std::size_t i = pos; i < end_pos; ++i) {
                const FleetFunction &fn = population_.fn(stream[i].fn);
                const std::size_t target =
                    cluster_.routeProjected(fn.name, loads);
                ++loads[target];
                outcomes[i].machine = target;
                queues[target].post(
                    sim::SimTime::seconds(stream[i].atSec),
                    [&serveOne, i] { serveOne(i); });
            }
            const sim::SimTime barrier = sim::SimTime::seconds(next_tick);
            scheduler.runRounds(barrier, [&](sim::SimTime horizon) {
                std::atomic<std::size_t> ran{0};
                exec.forEach(machines, [&](std::size_t m) {
                    // Handlers advance their machine's clock
                    // themselves (release times are run-relative).
                    ran.fetch_add(queues[m].runUntil(horizon, nullptr),
                                  std::memory_order_relaxed);
                });
                return ran.load(std::memory_order_relaxed);
            });
        } else {
            // Coupled fleets replay inline in stream order (always
            // sequential, so thread count cannot matter) and route
            // against live state per arrival: remote-sfork serving
            // updates template holders mid-epoch, and NetworkAware
            // placement must see them.
            for (std::size_t i = pos; i < end_pos; ++i) {
                if (stream[i].workflow >= 0) {
                    serveWorkflow(i);
                    continue;
                }
                const FleetFunction &fn = population_.fn(stream[i].fn);
                outcomes[i].machine = cluster_.route(fn.name);
                serveOne(i);
            }
        }

        for (std::size_t i = pos; i < end_pos; ++i)
            foldOne(i);
        pos = end_pos;
    }

    // Drain the remaining policy ticks, then close the run at the
    // nominal duration so cost integrals cover the full interval.
    while (next_tick < traffic.durationSec - 1e-9) {
        runTick(next_tick);
        next_tick += tick;
    }
    runTick(traffic.durationSec);
    scaler.finalize();

    report.policy = scaler.counters();
    report.expired += report.policy.keepAliveExpired;
    report.avgResidentMiB =
        resident_samples > 0
            ? resident_sum / static_cast<double>(resident_samples)
            : 0.0;
    for (std::size_t m = 0; m < machines; ++m)
        report.machineSeconds +=
            (cluster_.machine(m).ctx().clock().now() - start[m]).toSec();
    return report;
}

void
FleetReport::writeJson(std::ostream &os) const
{
    os << "{\"requests\": " << requests << ", \"boots\": " << boots
       << ", \"reuses\": " << reuses << ", \"expired\": " << expired;
    os << ",\n\"end_to_end_ms\": ";
    writeSeries(os, endToEnd);
    os << ",\n\"queue_wait_ms\": ";
    writeSeries(os, queueWait);
    os << ",\n\"boot_ms\": ";
    writeSeries(os, boot);
    os << ",\n\"e2e_windows\": ";
    writeWindows(os, e2eMsWindows);
    os << ",\n\"boot_windows\": ";
    writeWindows(os, bootMsWindows);
    os << ",\n\"tiers\": {";
    bool first = true;
    for (const auto &[tier, count] : tierCounts) {
        os << (first ? "" : ", ") << "\"" << sim::jsonEscape(tier)
           << "\": " << count;
        first = false;
    }
    os << "},\n\"tenant_e2e\": {";
    first = true;
    for (const auto &[tenant, hist] : tenantE2eMs) {
        os << (first ? "" : ", ") << "\"" << sim::jsonEscape(tenant)
           << "\": ";
        writeWindows(os, hist);
        first = false;
    }
    os << "},\n\"tenant_requests\": {";
    first = true;
    for (const auto &[tenant, count] : tenantRequests) {
        os << (first ? "" : ", ") << "\"" << sim::jsonEscape(tenant)
           << "\": " << count;
        first = false;
    }
    os << "},\n\"policy\": {\"ticks\": " << policy.ticks
       << ", \"prewarm_triggers\": " << policy.prewarmTriggers
       << ", \"prewarm_builds\": " << policy.prewarmBuilds
       << ", \"prewarm_false_positives\": "
       << policy.prewarmFalsePositives
       << ", \"prewarm_served_sforks\": " << policy.prewarmServedSforks
       << ", \"rebalance_actions\": " << policy.rebalanceActions
       << ", \"keep_alive_expired\": " << policy.keepAliveExpired
       << ", \"pressure_evictions\": " << policy.pressureEvictions
       << ", \"pressure_budget_shrinks\": "
       << policy.pressureBudgetShrinks
       << ", \"cross_rack_builds\": " << policy.crossRackBuilds << "}";
    if (workflowRuns > 0) {
        os << ",\n\"workflows\": {\"runs\": " << workflowRuns
           << ", \"hops_local\": " << chainHopsLocal
           << ", \"hops_remote\": " << chainHopsRemote
           << ", \"transfer_bytes\": " << chainTransferBytes
           << ", \"chain_e2e_ms\": ";
        writeSeries(os, chainE2e);
        os << "}";
    }
    const struct
    {
        const char *key;
        double value;
    } costs[] = {
        {"machine_seconds", machineSeconds},
        {"busy_seconds", busySeconds},
        {"avg_resident_mib", avgResidentMiB},
        {"peak_resident_mib", peakResidentMiB},
        {"resident_mib_seconds", residentMiBSeconds},
    };
    for (const auto &c : costs) {
        os << ",\n\"" << c.key << "\": ";
        writeExactNumber(os, c.value);
    }
    os << "}\n";
}

} // namespace catalyzer::load
