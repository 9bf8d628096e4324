/**
 * @file
 * The benchmark's metric and workload catalog, declared once.
 *
 * Every metric the benchmark can print lives in kMetrics with its unit,
 * clock, layer, better-direction and kind (end-to-end or per-layer).
 * The printed report, the final JSON line, `--list` and
 * `--benchmark-json` (the generator of the repository's BENCHMARK.json)
 * all iterate this table, so a metric cannot be printed under one name
 * and declared under another.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

namespace perfbench {

/** Which clock a metric is measured on. */
enum class Clock
{
    Host,    ///< wall time / resources of the benchmark process
    Virtual, ///< the simulator's deterministic virtual clock
    Both,    ///< counts that do not depend on either clock
};

enum class Better
{
    Lower,
    Higher,
};

/** End-to-end metrics come from untraced runs; per-layer from traced. */
enum class Kind
{
    EndToEnd,
    PerLayer,
};

struct MetricDef
{
    const char *name;
    const char *unit;
    Clock clock;
    const char *layer;
    Better better;
    Kind kind;
    /** Regression bound (share of the parent's median); end-to-end only. */
    double bound;
    const char *meaning;
};

// clang-format off
inline constexpr MetricDef kMetrics[] = {
    // ---- end to end ------------------------------------------------------
    {"sim_ops_per_s", "ops/s", Clock::Host, "bench", Better::Higher, Kind::EndToEnd, 0.25,
     "simulated operations per host second in the measured phase (median over sfork rounds or fleet repetitions)"},
    {"setup_s", "s", Clock::Host, "bench", Better::Lower, Kind::EndToEnd, 0.25,
     "host seconds before the measured phase (median over repetitions)"},
    {"peak_rss_mib", "MiB", Clock::Host, "bench", Better::Lower, Kind::EndToEnd, 0.15,
     "peak resident memory of the benchmark process"},
    {"virt_boot_p50_ms", "ms", Clock::Virtual, "platform", Better::Lower, Kind::EndToEnd, 0.25,
     "median virtual boot latency over requests that booted"},
    {"virt_boot_p99_ms", "ms", Clock::Virtual, "platform", Better::Lower, Kind::EndToEnd, 0.25,
     "99th-percentile virtual boot latency over requests that booted"},
    {"virt_e2e_p50_ms", "ms", Clock::Virtual, "platform", Better::Lower, Kind::EndToEnd, 0.2,
     "median virtual arrival-to-completion latency, queue wait included"},
    {"virt_e2e_p99_ms", "ms", Clock::Virtual, "platform", Better::Lower, Kind::EndToEnd, 0.25,
     "99th-percentile virtual arrival-to-completion latency, queue wait included"},
    {"virt_slo_attainment", "ratio", Clock::Virtual, "platform", Better::Higher, Kind::EndToEnd, 0.1,
     "share of attempted requests with virtual e2e <= 10 ms; failures count as misses"},
    {"virt_mib_s", "MiB.s", Clock::Virtual, "platform", Better::Lower, Kind::EndToEnd, 0.15,
     "integral of resident memory over the virtual run"},
    {"ops_ok_frac", "ratio", Clock::Both, "bench", Better::Higher, Kind::EndToEnd, 0.01,
     "1 - ops_failed_frac: operations that completed and passed every check, over attempted"},

    // ---- per layer: sfork-burst descends into the runtime -----------------
    {"catalyzer.boot_fork.p50_us", "us", Clock::Host, "catalyzer", Better::Lower, Kind::PerLayer, 0,
     "host time of CatalyzerRuntime::bootFork"},
    {"catalyzer.boot_fork.p99_us", "us", Clock::Host, "catalyzer", Better::Lower, Kind::PerLayer, 0,
     "host time of CatalyzerRuntime::bootFork"},
    {"sandbox.invoke.p50_us", "us", Clock::Host, "sandbox", Better::Lower, Kind::PerLayer, 0,
     "host time of SandboxInstance::invoke"},
    {"sandbox.invoke.p99_us", "us", Clock::Host, "sandbox", Better::Lower, Kind::PerLayer, 0,
     "host time of SandboxInstance::invoke"},
    {"mem.minor_faults_anon_per_op", "count/op", Clock::Both, "mem", Better::Lower, Kind::PerLayer, 0,
     "anonymous minor faults per measured operation"},
    {"mem.cow_faults_per_op", "count/op", Clock::Both, "mem", Better::Lower, Kind::PerLayer, 0,
     "copy-on-write faults per measured operation"},
    {"mem.fork_cow_pages_per_op", "count/op", Clock::Both, "mem", Better::Lower, Kind::PerLayer, 0,
     "pages shared copy-on-write by sfork per measured operation"},
    {"platform.invoke.p50_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of ServerlessPlatform::invoke"},
    {"platform.invoke.p99_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of ServerlessPlatform::invoke"},
    {"platform.teardown.total_s", "s", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of ServerlessPlatform::teardown over the measured phase"},
    {"sim.stat_incr_ns", "ns", Clock::Host, "sim", Better::Lower, Kind::PerLayer, 0,
     "host time of one StatRegistry::incr over the workload's own counter names"},

    // ---- per layer: image priming and the object graph ---------------------
    {"platform.prime.calls", "count", Clock::Both, "platform", Better::Lower, Kind::PerLayer, 0,
     "first invocations of a function on a machine inside the measured phase"},
    {"platform.prime.total_s", "s", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of those first invocations"},
    {"snapshot.images_built", "count", Clock::Both, "snapshot", Better::Lower, Kind::PerLayer, 0,
     "func-images built inside the measured phase"},
    {"objgraph.build_us", "us", Clock::Host, "objgraph", Better::Lower, Kind::PerLayer, 0,
     "median host time of SeparatedImage::build over the workload's distinct images"},
    {"objgraph.reconstruct_us", "us", Clock::Host, "objgraph", Better::Lower, Kind::PerLayer, 0,
     "median host time of a first SeparatedImage::reconstruct over the same images"},
    {"catalyzer.pointer_fixups_per_op", "count/op", Clock::Both, "catalyzer", Better::Lower, Kind::PerLayer, 0,
     "separated-state pointer fix-ups per measured operation"},

    // ---- per layer: fleet routing and autoscaling ---------------------------
    {"platform.route.p50_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of Cluster::route / routeProjected"},
    {"platform.route.p99_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of Cluster::route / routeProjected"},
    {"platform.invoke_on.p50_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of Cluster::invokeOn"},
    {"platform.invoke_on.p99_us", "us", Clock::Host, "platform", Better::Lower, Kind::PerLayer, 0,
     "host time of Cluster::invokeOn"},
    {"load.autoscaler_tick.p50_us", "us", Clock::Host, "load", Better::Lower, Kind::PerLayer, 0,
     "host time of FleetAutoscaler::tick"},
    {"load.autoscaler_tick.p99_us", "us", Clock::Host, "load", Better::Lower, Kind::PerLayer, 0,
     "host time of FleetAutoscaler::tick"},
    {"load.autoscaler_tick.total_s", "s", Clock::Host, "load", Better::Lower, Kind::PerLayer, 0,
     "host time of all FleetAutoscaler::tick calls"},
    {"policy.prewarm_builds", "count", Clock::Both, "load", Better::Lower, Kind::PerLayer, 0,
     "templates built ahead of demand by predictive pre-warm"},
    {"policy.prewarm_precision", "ratio", Clock::Both, "load", Better::Higher, Kind::PerLayer, 0,
     "sforks served from pre-warmed templates over pre-warm builds"},
    {"platform.reuse_ratio", "ratio", Clock::Both, "platform", Better::Higher, Kind::PerLayer, 0,
     "keep-alive reuses over platform invocations"},
    {"fleet.queue_wait_p99_ms", "ms", Clock::Virtual, "load", Better::Lower, Kind::PerLayer, 0,
     "99th-percentile virtual queue wait (FleetReport::queueWait)"},

    // ---- per layer: chunked images, state, workflows, fabric ---------------
    {"image.chunks.ram_hits", "count", Clock::Both, "snapshot", Better::Higher, Kind::PerLayer, 0,
     "image chunks served from the RAM tier"},
    {"image.chunks.ssd_hits", "count", Clock::Both, "snapshot", Better::Higher, Kind::PerLayer, 0,
     "image chunks served from the SSD tier"},
    {"image.chunks.origin_fetches", "count", Clock::Both, "snapshot", Better::Lower, Kind::PerLayer, 0,
     "image chunks fetched from origin storage"},
    {"image.chunks.demotions", "count", Clock::Both, "snapshot", Better::Lower, Kind::PerLayer, 0,
     "image chunks demoted from RAM to SSD"},
    {"image.chunks.local_hit_ratio", "ratio", Clock::Both, "snapshot", Better::Higher, Kind::PerLayer, 0,
     "RAM + SSD chunk hits over all chunk lookups"},
    {"workflow.run.p50_us", "us", Clock::Host, "workflow", Better::Lower, Kind::PerLayer, 0,
     "host time of WorkflowEngine::run"},
    {"workflow.run.p99_us", "us", Clock::Host, "workflow", Better::Lower, Kind::PerLayer, 0,
     "host time of WorkflowEngine::run"},
    {"state.publishes", "count", Clock::Both, "state", Better::Lower, Kind::PerLayer, 0,
     "state-region publishes"},
    {"state.attaches", "count", Clock::Both, "state", Better::Lower, Kind::PerLayer, 0,
     "state-region attaches"},
    {"state.transfer_bytes", "bytes", Clock::Both, "state", Better::Lower, Kind::PerLayer, 0,
     "state-region bytes streamed between machines"},
    {"chain.hops_remote", "count", Clock::Both, "workflow", Better::Lower, Kind::PerLayer, 0,
     "workflow stage hops that crossed machines"},
    {"workflow.chain_e2e_p90_ms", "ms", Clock::Virtual, "workflow", Better::Lower, Kind::PerLayer, 0,
     "90th-percentile virtual workflow end-to-end latency"},
    {"net.bytes_mib", "MiB", Clock::Both, "net", Better::Lower, Kind::PerLayer, 0,
     "bytes moved over the fabric"},
    {"remote.fork_hits", "count", Clock::Both, "remote", Better::Higher, Kind::PerLayer, 0,
     "boots served by remote-sfork from a peer's template"},
    {"remote.page_pulls", "count", Clock::Both, "remote", Better::Lower, Kind::PerLayer, 0,
     "pages pulled on demand from remote-sfork lenders"},

    // ---- the tracer itself ---------------------------------------------------
    {"trace.overhead_frac", "ratio", Clock::Host, "bench", Better::Lower, Kind::PerLayer, 0,
     "sfork-burst: untraced over traced ops/s minus one; 0 on the fleets"},
};
// clang-format on

struct WorkloadDef
{
    const char *name;
    const char *why;
};

inline constexpr WorkloadDef kWorkloads[] = {
    {"sfork-burst",
     "Fig. 15 density: one machine sforks ~2000 live instances per round "
     "and tears them down; loads mem, stats, sfork and invoke, bypasses "
     "images, routing and the fleet"},
    {"fleet-flash",
     "share-nothing 8-machine fleet on a Zipf flash-crowd tape with "
     "pre-warm; loads image priming, objgraph, routing, the autoscaler "
     "and parallel epoch replay"},
    {"fleet-stateful",
     "coupled 4-machine fleet with remote-sfork, chunked images and a "
     "workflow side stream; the only load on chunk tiers, fabric, remote, "
     "state and workflow"},
};

/** Seconds one benchmark run measures (BENCHMARK.json run_seconds). */
inline constexpr int kRunSeconds = 30;

inline const char *
clockName(Clock c)
{
    return c == Clock::Host ? "host" : c == Clock::Virtual ? "virtual"
                                                           : "both";
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
