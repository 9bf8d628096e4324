#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>

#include "load/driver.h"
#include "workflow/scenarios.h"

namespace perfbench {

using namespace catalyzer;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/** The latency limit fig_fleet_slo scores against. */
constexpr double kSloMs = 10.0;

/** splitmix64: the benchmark's only source of input randomness. */
struct Rng
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** An independent input stream's seed, derived from the workload seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng{seed ^ (stream * 0xd1b54a32d192ed03ull)};
    return rng.next();
}

/** FNV-1a over a byte stream, printed as 16 hex digits. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
        return buf;
    }
};

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Record a failed check and the operations it invalidates. */
void
check(bool ok, std::size_t ops, const std::string &what,
      std::vector<std::string> &violations, std::size_t &failed)
{
    if (ok)
        return;
    violations.push_back(what);
    failed += std::max<std::size_t>(1, ops);
}

std::size_t
absDiff(std::size_t a, std::size_t b)
{
    return a > b ? a - b : b - a;
}

/** Counter deltas of one registry between two snapshots. */
struct Counters
{
    std::map<std::string, std::int64_t> values;
    double
    delta(const Counters &before, const std::string &name) const
    {
        auto get = [&](const Counters &c) -> double {
            auto it = c.values.find(name);
            return it == c.values.end() ? 0.0
                                        : static_cast<double>(it->second);
        };
        return get(*this) - get(before);
    }
};

/** Per-layer metrics common to every workload, from counter deltas. */
void
counterMetrics(const Counters &before, const Counters &after, double ops,
               std::map<std::string, double> &layer)
{
    const double per_op = ops > 0 ? 1.0 / ops : 0.0;
    auto d = [&](const char *name) { return after.delta(before, name); };
    layer["mem.minor_faults_anon_per_op"] =
        d("mem.minor_faults_anon") * per_op;
    layer["mem.cow_faults_per_op"] = d("mem.cow_faults") * per_op;
    layer["mem.fork_cow_pages_per_op"] = d("mem.fork_cow_pages") * per_op;
    layer["catalyzer.pointer_fixups_per_op"] =
        d("catalyzer.pointer_fixups") * per_op;
    layer["snapshot.images_built"] = d("snapshot.images_built");
    const double invocations = d("platform.invocations");
    layer["platform.reuse_ratio"] =
        invocations > 0 ? d("platform.instance_reuses") / invocations : 0.0;
    for (const char *name :
         {"image.chunks.ram_hits", "image.chunks.ssd_hits",
          "image.chunks.origin_fetches", "image.chunks.demotions",
          "state.publishes", "state.attaches", "state.transfer_bytes",
          "chain.hops_remote", "remote.fork_hits", "remote.page_pulls"})
        layer[name] = d(name);
    const double local =
        d("image.chunks.ram_hits") + d("image.chunks.ssd_hits");
    const double lookups = local + d("image.chunks.peer_hits") +
                           d("image.chunks.origin_fetches");
    layer["image.chunks.local_hit_ratio"] =
        lookups > 0 ? local / lookups : 0.0;
    layer["net.bytes_mib"] = d("net.bytes") / kMiB;
}

/** Copy span summaries into the per-layer metrics they feed. */
void
spanMetrics(const SpanRecorder &rec, std::map<std::string, double> &layer)
{
    const auto spans = rec.summarize();
    auto get = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? SpanStats{} : it->second;
    };
    for (const char *name :
         {"catalyzer.boot_fork", "sandbox.invoke", "platform.invoke",
          "platform.route", "platform.invoke_on", "load.autoscaler_tick",
          "workflow.run"}) {
        const SpanStats st = get(name);
        layer[std::string(name) + ".p50_us"] = st.p50Us;
        layer[std::string(name) + ".p99_us"] = st.p99Us;
    }
    layer["platform.teardown.total_s"] = get("platform.teardown").totalSec;
    layer["load.autoscaler_tick.total_s"] =
        get("load.autoscaler_tick").totalSec;
    layer["platform.prime.calls"] =
        static_cast<double>(get("platform.prime").calls);
    layer["platform.prime.total_s"] = get("platform.prime").totalSec;
}

/**
 * StatRegistry::incr over the workload's own counter names, the way
 * the simulator's call sites pass them (a C string per call).
 */
double
statIncrNs(const sim::StatRegistry &source)
{
    std::vector<std::string> names;
    for (const auto &[name, value] : source.all())
        names.push_back(name);
    if (names.empty())
        return 0.0;
    sim::StatRegistry reg;
    for (const std::string &n : names)
        reg.incr(n.c_str(), 0);
    const std::size_t calls = 1u << 20;
    const auto start = HostClock::now();
    for (std::size_t i = 0; i < calls; ++i)
        reg.incr(names[i % names.size()].c_str());
    const double sec = secondsSince(start);
    // Read back so the loop cannot be dropped.
    std::int64_t sum = 0;
    for (const std::string &n : names)
        sum += reg.value(n);
    if (sum != static_cast<std::int64_t>(calls))
        return -1.0;
    return sec * 1e9 / static_cast<double>(calls);
}

/**
 * SeparatedImage::build and a first reconstruct on each image; false
 * when a rebuilt image does not reconstruct to the same object count.
 */
bool
objgraphMetrics(const std::vector<const snapshot::FuncImage *> &images,
                std::map<std::string, double> &layer)
{
    std::vector<double> build_us, reconstruct_us;
    bool ok = true;
    for (const snapshot::FuncImage *image : images) {
        const objgraph::ObjectGraph graph = image->separated().reconstruct();
        auto start = HostClock::now();
        const objgraph::SeparatedImage built =
            objgraph::SeparatedImage::build(graph);
        build_us.push_back(secondsSince(start) * 1e6);
        start = HostClock::now();
        const objgraph::ObjectGraph back = built.reconstruct();
        reconstruct_us.push_back(secondsSince(start) * 1e6);
        ok = ok && back.objectCount() == graph.objectCount();
    }
    layer["objgraph.build_us"] = percentile(build_us, 50.0);
    layer["objgraph.reconstruct_us"] = percentile(reconstruct_us, 50.0);
    return ok;
}

void
fillLatencyMetrics(RepResult &out, std::vector<double> boot_ms,
                   std::vector<double> e2e_ms, std::size_t slo_attempted)
{
    std::size_t within = 0;
    for (double ms : e2e_ms)
        within += ms <= kSloMs ? 1 : 0;
    out.virt["virt_slo_attainment"] =
        slo_attempted > 0 ? static_cast<double>(within) /
                                static_cast<double>(slo_attempted)
                          : 0.0;
    out.samples["virt_boot_p50_ms"] = out.samples["virt_boot_p99_ms"] =
        boot_ms.size();
    out.samples["virt_e2e_p50_ms"] = out.samples["virt_e2e_p99_ms"] =
        e2e_ms.size();
    out.samples["virt_slo_attainment"] = slo_attempted;
    out.virt["virt_boot_p50_ms"] = percentile(boot_ms, 50.0);
    out.virt["virt_boot_p99_ms"] = percentile(boot_ms, 99.0);
    out.virt["virt_e2e_p50_ms"] = percentile(e2e_ms, 50.0);
    out.virt["virt_e2e_p99_ms"] = percentile(e2e_ms, 99.0);
}

//
// sfork-burst
//

/** Apps spanning small to large images; weights are relative shares. */
const struct
{
    const char *app;
    unsigned weight;
} kBurstMix[] = {
    {"ds-text", 30},    {"python-hello", 20}, {"c-nginx", 15},
    {"nodejs-web", 15}, {"ds-media", 12},     {"java-specjbb", 8},
};
/** Seeded variants of each mix app (see BurstSetup). */
constexpr std::size_t kBurstVariants = 4;
constexpr double kBurstJitter = 0.1;
constexpr std::size_t kBurstRounds = 6;
constexpr std::size_t kBurstLive = 2000;

/**
 * One machine with sfork templates for kBurstVariants variants of each
 * mix app. A variant copies the catalogue profile with its heap sizes,
 * kernel-object count and handler cost jittered by the seed, so the
 * virtual latency distribution is an input that moves with the seed
 * rather than six fixed catalogue values. Round r of the tape boots
 * tape[r].size() instances; entries index profiles.
 */
struct BurstSetup
{
    /** Stable addresses: FunctionArtifacts keeps profile references. */
    std::deque<apps::AppProfile> profiles;
    std::vector<std::vector<std::uint8_t>> tape;
    std::unique_ptr<sandbox::Machine> machine;
    std::unique_ptr<platform::ServerlessPlatform> plat;
};

BurstSetup
setupBurst(std::uint64_t seed)
{
    BurstSetup s;
    Rng shape{mixSeed(seed, 1)};
    auto jitter = [&](double base) {
        const double u = static_cast<double>(shape.next() >> 11) * 0x1p-53;
        return base * (1.0 + kBurstJitter * (2.0 * u - 1.0));
    };
    std::vector<unsigned> weights;
    for (const auto &m : kBurstMix) {
        for (std::size_t v = 0; v < kBurstVariants; ++v) {
            apps::AppProfile p = apps::appByName(m.app);
            p.name.push_back('#');
            p.name.append(std::to_string(v));
            p.appHeapPages = static_cast<std::size_t>(
                jitter(static_cast<double>(p.appHeapPages)));
            p.runtimeHeapPages = static_cast<std::size_t>(
                jitter(static_cast<double>(p.runtimeHeapPages)));
            p.kernelObjects = static_cast<std::size_t>(
                jitter(static_cast<double>(p.kernelObjects)));
            p.execComputeCost = p.execComputeCost * jitter(1.0);
            // sfork re-expands every saved thread, so the thread count
            // is the one input the sfork boot latency depends on.
            p.blockingThreads = std::max(
                0, p.blockingThreads - 2 + static_cast<int>(shape.below(5)));
            s.profiles.push_back(std::move(p));
            weights.push_back(m.weight);
        }
    }

    Rng ops{mixSeed(seed, 4)};
    unsigned total_weight = 0;
    for (unsigned w : weights)
        total_weight += w;
    s.tape.resize(kBurstRounds);
    for (auto &round : s.tape) {
        round.resize(kBurstLive);
        for (auto &op : round) {
            std::uint64_t pick = ops.below(total_weight);
            std::uint8_t fn = 0;
            while (pick >= weights[fn])
                pick -= weights[fn++];
            op = fn;
        }
    }

    s.machine = std::make_unique<sandbox::Machine>(42);
    s.plat = std::make_unique<platform::ServerlessPlatform>(
        *s.machine,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerFork});
    for (const apps::AppProfile &p : s.profiles) {
        s.plat->deploy(p);
        s.plat->prepare(p);
    }
    return s;
}

Counters
snapshotCounters(const sim::StatRegistry &stats)
{
    return Counters{stats.all()};
}

/**
 * The platform-level burst: ServerlessPlatform::invoke per operation,
 * ServerlessPlatform::teardown of every app at the end of each round.
 * Spans go to @p rec when it is non-null.
 */
RepResult
burstRep(std::uint64_t seed, SpanRecorder *rec, Counters *before,
         Counters *after, BurstSetup *keep)
{
    RepResult out;
    const auto setup_start = HostClock::now();
    BurstSetup s = setupBurst(seed);
    out.setupSec = secondsSince(setup_start);

    sim::SimContext &ctx = s.machine->ctx();
    platform::ServerlessPlatform &plat = *s.plat;
    if (before)
        *before = snapshotCounters(ctx.stats());
    const std::int64_t invocations0 = ctx.stats().value("platform.invocations");

    std::vector<double> boot_ms, e2e_ms;
    std::map<std::string, std::size_t> tiers;
    std::size_t boots = 0, reuses = 0, planned = 0;
    Digest digest;
    double mib_s = 0.0;
    double last_t = ctx.now().toSec();
    double last_mib = static_cast<double>(plat.residentBytes()) / kMiB;
    // Trapezoid integral of resident memory between samples taken
    // before and after each round's teardown.
    auto sample = [&] {
        const double t = ctx.now().toSec();
        const double mib = static_cast<double>(plat.residentBytes()) / kMiB;
        mib_s += 0.5 * (mib + last_mib) * (t - last_t);
        last_t = t;
        last_mib = mib;
    };

    std::uint64_t op_id = 0;
    const auto start = HostClock::now();
    for (const auto &round : s.tape) {
        const auto round_start = HostClock::now();
        const std::size_t attempted_before = out.attempted;
        planned += round.size();
        for (std::uint8_t fn : round) {
            const std::string &name = s.profiles[fn].name;
            try {
                ScopedSpan span(rec, "platform.invoke", ++op_id);
                const platform::InvocationRecord r = plat.invoke(name);
                ++out.attempted;
                ++tiers[r.tierServed];
                (r.reusedInstance ? reuses : boots) += 1;
                if (!r.reusedInstance)
                    boot_ms.push_back(r.bootLatency.toMs());
                e2e_ms.push_back(r.endToEnd().toMs());
                digest.add(exact(r.bootLatency.toMs()) + " " +
                           exact(r.endToEnd().toMs()) + "\n");
            } catch (const std::exception &e) {
                ++out.attempted;
                ++out.failed;
                out.violations.push_back(std::string("exception: ") +
                                         e.what());
            }
        }
        sample();
        {
            ScopedSpan span(rec, "platform.teardown");
            for (const apps::AppProfile &p : s.profiles)
                plat.teardown(p.name);
        }
        out.rates.push_back(
            static_cast<double>(out.attempted - attempted_before) /
            secondsSince(round_start));
        check(plat.totalInstances() == 0, plat.totalInstances(),
              "instances left after teardown", out.violations, out.failed);
        sample();
    }
    out.measuredSec = secondsSince(start);
    if (after)
        *after = snapshotCounters(ctx.stats());

    const std::size_t requests = out.attempted;
    check(out.attempted == planned, absDiff(out.attempted, planned),
          "operations attempted != tape length", out.violations,
          out.failed);
    std::size_t tier_sum = 0;
    for (const auto &[tier, n] : tiers) {
        tier_sum += n;
        check(!tier.empty(), n, "requests with no tier served",
              out.violations, out.failed);
    }
    check(boots + reuses == e2e_ms.size(),
          absDiff(boots + reuses, e2e_ms.size()),
          "boots + reuses != requests", out.violations, out.failed);
    check(tier_sum == e2e_ms.size(), absDiff(tier_sum, e2e_ms.size()),
          "per-tier counts do not sum to requests", out.violations,
          out.failed);
    const auto counted = static_cast<std::size_t>(
        ctx.stats().value("platform.invocations") - invocations0);
    check(counted == e2e_ms.size(), absDiff(counted, e2e_ms.size()),
          "platform.invocations counter != requests", out.violations,
          out.failed);

    fillLatencyMetrics(out, boot_ms, e2e_ms, requests);
    out.virt["virt_mib_s"] = mib_s;
    out.digest = digest.hex();
    if (keep)
        *keep = std::move(s);
    return out;
}

TracedResult
burstTraced(std::uint64_t seed, SpanRecorder &rec)
{
    TracedResult out;
    // Untraced baseline and the platform-level traced pass: the
    // difference in ops/s is the tracing overhead.
    const RepResult base = burstRep(seed, nullptr, nullptr, nullptr, nullptr);
    Counters before, after;
    BurstSetup kept;
    const RepResult traced = burstRep(seed, &rec, &before, &after, &kept);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    out.violations = traced.violations;
    const double base_rate =
        static_cast<double>(base.attempted) / base.measuredSec;
    const double traced_rate =
        static_cast<double>(traced.attempted) / traced.measuredSec;
    out.layer["trace.overhead_frac"] = base_rate / traced_rate - 1.0;
    out.notes.push_back(
        "tracing overhead: untraced " + exact(base_rate) +
        " ops/s, traced " + exact(traced_rate) + " ops/s");
    out.notes.push_back(
        std::string("traced platform pass digest ") +
        (traced.digest == base.digest ? "matches" : "DIFFERS from") +
        " the untraced run (" + base.digest + ")");
    counterMetrics(before, after, static_cast<double>(traced.attempted),
                   out.layer);
    // No fleet here: no autoscaler, no queue, no workflows.
    for (const char *name :
         {"policy.prewarm_builds", "policy.prewarm_precision",
          "fleet.queue_wait_p99_ms", "workflow.chain_e2e_p90_ms"})
        out.layer[name] = 0.0;

    // One layer down: bootFork + SandboxInstance::invoke in place of
    // ServerlessPlatform::invoke, instances dropped at round end.
    {
        BurstSetup s = setupBurst(seed);
        std::vector<sandbox::FunctionArtifacts *> fns;
        for (const apps::AppProfile &p : s.profiles)
            fns.push_back(s.plat->registry().find(p.name));
        std::vector<std::unique_ptr<sandbox::SandboxInstance>> live;
        std::uint64_t op_id = 0;
        for (const auto &round : s.tape) {
            live.reserve(round.size());
            for (std::uint8_t fn : round) {
                ++op_id;
                sandbox::BootResult boot;
                {
                    ScopedSpan span(&rec, "catalyzer.boot_fork", op_id);
                    boot = s.plat->catalyzer().bootFork(*fns[fn]);
                }
                {
                    ScopedSpan span(&rec, "sandbox.invoke", op_id);
                    boot.instance->invoke();
                }
                live.push_back(std::move(boot.instance));
            }
            live.clear();
        }
    }
    spanMetrics(rec, out.layer);

    std::vector<const snapshot::FuncImage *> images;
    for (const apps::AppProfile &p : kept.profiles)
        images.push_back(sandbox::ensureSeparatedImage(
                             *kept.plat->registry().find(p.name))
                             .get());
    check(objgraphMetrics(images, out.layer), 1,
          "rebuilt image reconstructs differently", out.violations,
          out.failed);
    out.layer["sim.stat_incr_ns"] = statIncrNs(kept.machine->ctx().stats());
    return out;
}

//
// Fleets
//

enum class FleetKind
{
    Flash,
    Stateful,
};

struct FleetSetup
{
    std::unique_ptr<load::Population> population;
    std::unique_ptr<platform::Cluster> cluster;
    load::TrafficSpec traffic;
    load::FleetRunConfig config;
    std::vector<load::FleetArrival> tape;
    std::size_t workflowArrivals = 0;
};

/**
 * Population, cluster, deployment, template preparation and tape: all
 * host work before the measured phase. Rates keep the virtual queue
 * stationary (it does not grow over the run); tapes are long because
 * replay is cheap next to image priming, and a long tape averages the
 * tail over many autoscaler ticks.
 */
FleetSetup
setupFleet(FleetKind kind, std::uint64_t seed)
{
    FleetSetup s;
    load::PopulationSpec pop;
    pop.seed = mixSeed(seed, 2);
    s.traffic.seed = mixSeed(seed, 3);

    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    pconf.reuseIdleInstances = true;
    core::CatalyzerOptions options;
    std::size_t machines = 0;

    s.config.policy.policyTick = sim::SimTime::milliseconds(500.0);
    s.config.policy.machineResidentBudgetBytes = std::size_t{2048} << 20;

    if (kind == FleetKind::Flash) {
        // Share-nothing: the fabric is modelled but nothing crosses it.
        machines = 8;
        fabric.machinesPerRack = 4;
        pop.functions = 200;
        pop.tenants = 10;
        pop.totalRps = 250.0;
        s.traffic.scenario = load::Scenario::FlashCrowd;
        s.traffic.durationSec = 120.0;
        // fig_fleet_slo's wide, thin flash: at mid-run the colder half
        // of the catalog ramps from silence to 1.5 rps each (150 rps on
        // top of the 250). Spreading the flash over many functions keeps
        // the tail from hinging on which few archetypes the seed put in
        // the flash set.
        s.traffic.flashAtSec = s.traffic.durationSec * 0.5;
        s.traffic.flashRampSec = s.traffic.durationSec * 0.1;
        s.traffic.flashHoldSec = s.traffic.durationSec * 0.25;
        s.traffic.flashFunctions = pop.functions / 2;
        s.traffic.flashRpsPerFunction = 1.5;
        // A short keep-alive keeps boots near half of all requests, so
        // the e2e median is not one reuse plateau.
        s.config.policy.keepAliveTtl = sim::SimTime::seconds(0.5);
        s.config.policy.predictivePrewarm = true;
        s.config.policy.prewarmRateRps = 2.0;
        s.config.simThreads = fleetWorkers();
    } else {
        // Coupled: remote-sfork lending and chunked remote images with
        // a RAM tier far smaller than the catalog, so chunks demote.
        machines = 4;
        fabric.machinesPerRack = 2;
        fabric.remoteFork = true;
        options.remoteImages = true;
        options.chunkedImages.enabled = true;
        options.chunkedImages.ramBudgetBytes = std::size_t{8} << 20;
        options.chunkedImages.ssdBudgetBytes = std::size_t{256} << 20;
        pop.functions = 200;
        pop.tenants = 8;
        pop.totalRps = 40.0;
        s.traffic.scenario = load::Scenario::Steady;
        s.traffic.durationSec = 240.0;
        s.traffic.workflowRps = 6.0;
        s.traffic.workflowKinds = 2;
        s.config.workflows = {workflow::pipelineAnalytics(2, 64),
                              workflow::shoppingCartSession(2, 32)};
        s.config.policy.keepAliveTtl = sim::SimTime::seconds(1.0);
        s.config.simThreads = 1;
    }

    s.population = std::make_unique<load::Population>(pop);
    s.cluster = std::make_unique<platform::Cluster>(
        machines, platform::PlacementPolicy::NetworkAware, pconf, options,
        sim::CostModel{}, 42, fabric);
    s.population->deployTo(*s.cluster);
    if (!s.config.workflows.empty()) {
        for (const std::string &name : workflow::scenarioFunctions()) {
            const apps::AppProfile &app = apps::appByName(name);
            s.cluster->deploy(app);
            s.cluster->prepareEverywhere(app);
        }
    }
    s.tape = load::generateFleetStream(*s.population, s.traffic);
    for (const load::FleetArrival &a : s.tape)
        s.workflowArrivals += a.workflow >= 0 ? 1 : 0;
    return s;
}

/** Checks and metrics shared by the untraced and traced fleet runs. */
void
scoreFleet(const FleetSetup &s, const load::FleetReport &r, RepResult &out)
{
    const std::size_t fn_arrivals = s.tape.size() - s.workflowArrivals;
    out.attempted = s.tape.size();
    auto &v = out.violations;
    check(r.requests + r.workflowRuns == s.tape.size(),
          absDiff(r.requests + r.workflowRuns, s.tape.size()),
          "arrivals attempted != tape length", v, out.failed);
    check(r.boots + r.reuses == r.requests,
          absDiff(r.boots + r.reuses, r.requests),
          "boots + reuses != requests", v, out.failed);
    std::size_t tier_sum = 0;
    for (const auto &[tier, n] : r.tierCounts) {
        tier_sum += n;
        check(!tier.empty(), n, "requests with no tier served", v,
              out.failed);
    }
    check(tier_sum == r.requests, absDiff(tier_sum, r.requests),
          "per-tier counts do not sum to requests", v, out.failed);
    check(r.workflowRuns == s.workflowArrivals,
          absDiff(r.workflowRuns, s.workflowArrivals),
          "workflow runs != tape workflow arrivals", v, out.failed);
    check(r.endToEnd.count() == r.requests &&
              r.boot.count() == r.boots &&
              r.chainE2e.count() == r.workflowRuns,
          1, "latency series sizes disagree with the counts", v,
          out.failed);

    fillLatencyMetrics(out, r.boot.raw(), r.endToEnd.raw(), fn_arrivals);
    out.virt["virt_mib_s"] = r.residentMiBSeconds;
    std::string tiers;
    for (const auto &[tier, n] : r.tierCounts)
        tiers += " " + tier + "=" + std::to_string(n);
    // A stationary queue has about the same tail in both halves of the
    // tape (queue waits are recorded in stream order).
    const std::vector<double> &waits = r.queueWait.raw();
    const std::size_t half = waits.size() / 2;
    std::vector<double> first(waits.begin(), waits.begin() + half);
    std::vector<double> second(waits.begin() + half, waits.end());
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "virtual: %zu requests, %zu boots, %zu reuses, %zu "
                  "workflow runs; queue p99 %.3f ms (first half %.3f, "
                  "second half %.3f); busy %.1f of %.1f machine-s; tiers:",
                  r.requests, r.boots, r.reuses, r.workflowRuns,
                  percentile(waits, 99.0),
                  percentile(first, 99.0), percentile(second, 99.0),
                  r.busySeconds, r.machineSeconds);
    out.notes.push_back(buf + tiers);
    std::ostringstream os;
    r.writeJson(os);
    Digest d;
    d.add(os.str());
    out.digest = d.hex();
}

RepResult
fleetRep(FleetKind kind, std::uint64_t seed)
{
    RepResult out;
    const auto setup_start = HostClock::now();
    FleetSetup s = setupFleet(kind, seed);
    out.setupSec = secondsSince(setup_start);
    const auto start = HostClock::now();
    try {
        load::FleetDriver driver(*s.cluster, *s.population);
        const load::FleetReport report = driver.run(s.traffic, s.config);
        out.measuredSec = secondsSince(start);
        scoreFleet(s, report, out);
        out.rates.push_back(static_cast<double>(out.attempted) /
                            out.measuredSec);
    } catch (const std::exception &e) {
        out.measuredSec = secondsSince(start);
        out.attempted = s.tape.size();
        out.failed = s.tape.size();
        out.violations.push_back(std::string("exception: ") + e.what());
    }
    return out;
}

// Pinned trace ids, as load::FleetDriver::run pins them.
constexpr trace::TraceId kFleetTraceIdBase = 1ull << 48;
constexpr trace::TraceId kFleetPrimeTraceIdBase = 1ull << 47;

/**
 * load::FleetDriver::run replayed serially from the calls it is built
 * from, with a span around each: priming invokes, routing, invokeOn,
 * workflow runs and autoscaler ticks. Routing follows FleetDriver's two
 * modes (epoch-projected on share-nothing fleets, live otherwise), and
 * serving a share-nothing epoch in stream order visits each machine's
 * arrivals in the order its event queue would, so the report should
 * match the untraced run byte for byte.
 */
load::FleetReport
tracedReplay(FleetSetup &s, SpanRecorder &rec)
{
    platform::Cluster &cluster = *s.cluster;
    const load::Population &population = *s.population;
    const load::FleetRunConfig &config = s.config;
    const std::vector<load::FleetArrival> &stream = s.tape;

    load::FleetAutoscaler scaler(cluster, population, config.policy);
    load::FleetReport report;
    report.e2eMsWindows = sim::WindowedHistogram(config.tenantWindow);
    report.bootMsWindows = sim::WindowedHistogram(config.tenantWindow);
    const std::size_t machines = cluster.machineCount();

    // Workflow stage functions prime after the population's, sorted and
    // deduplicated (our fleets configure workflows only with a tape that
    // carries workflow arrivals).
    std::vector<std::string> wf_fns;
    for (const workflow::WorkflowSpec &spec : config.workflows) {
        for (const workflow::StageSpec &stage : spec.stages)
            wf_fns.push_back(stage.function);
    }
    std::sort(wf_fns.begin(), wf_fns.end());
    wf_fns.erase(std::unique(wf_fns.begin(), wf_fns.end()), wf_fns.end());

    trace::TraceId prime_id = kFleetPrimeTraceIdBase;
    for (std::size_t m = 0; m < machines; ++m) {
        platform::ServerlessPlatform &plat = cluster.platform(m);
        sandbox::Machine &mach = cluster.machine(m);
        auto prime = [&](const std::string &fn) {
            ScopedSpan span(&rec, "platform.prime");
            plat.invoke(fn, trace::TraceContext(mach.tracer(),
                                                mach.ctx().clock(), 0,
                                                prime_id++));
        };
        for (std::size_t i = 0; i < population.size(); ++i)
            prime(population.fn(i).name);
        for (const std::string &fn : wf_fns)
            prime(fn);
        plat.expireIdle(sim::SimTime::milliseconds(0.001));
    }

    std::vector<sim::SimTime> start(machines);
    for (std::size_t m = 0; m < machines; ++m)
        start[m] = cluster.machine(m).ctx().clock().now();
    cluster.alignWindowOrigins();

    auto advanceMachineTo = [&](std::size_t m, double t) {
        sim::VirtualClock &clock = cluster.machine(m).ctx().clock();
        const sim::SimTime target = start[m] + sim::SimTime::seconds(t);
        if (clock.now() < target)
            clock.advance(target - clock.now());
    };

    double resident_sum = 0.0;
    std::size_t resident_samples = 0;
    double last_sample_t = 0.0;
    auto runTick = [&](double t_tick) {
        for (std::size_t m = 0; m < machines; ++m)
            advanceMachineTo(m, t_tick);
        {
            ScopedSpan span(&rec, "load.autoscaler_tick");
            scaler.tick(sim::SimTime::seconds(t_tick));
        }
        const double mib =
            static_cast<double>(scaler.fleetResidentBytes()) / kMiB;
        report.residentMiBSeconds += mib * (t_tick - last_sample_t);
        last_sample_t = t_tick;
        resident_sum += mib;
        ++resident_samples;
        report.peakResidentMiB = std::max(report.peakResidentMiB, mib);
    };

    const double tick = config.policy.policyTick.toSec();
    double next_tick = tick;
    const bool share_nothing =
        cluster.shareNothing() && s.workflowArrivals == 0;
    workflow::WorkflowEngine engine(
        cluster, workflow::WorkflowOptions{config.workflowLocalityAware});

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

    auto serveOne = [&](std::size_t i) {
        const load::FleetFunction &fn = population.fn(stream[i].fn);
        Outcome &out = outcomes[i];
        const std::size_t target = out.machine;
        platform::ServerlessPlatform &plat = cluster.platform(target);
        advanceMachineTo(target, stream[i].atSec);
        const sim::SimTime arrive =
            start[target] + sim::SimTime::seconds(stream[i].atSec);
        const sim::SimTime now_on_target =
            cluster.machine(target).ctx().clock().now();
        out.queued = now_on_target > arrive ? now_on_target - arrive
                                            : sim::SimTime::zero();
        out.expired = plat.expireIdle(config.policy.keepAliveTtl);
        sandbox::Machine &m = cluster.machine(target);
        const trace::TraceContext pinned(
            m.tracer(), m.ctx().clock(), 0,
            kFleetTraceIdBase + static_cast<trace::TraceId>(i));
        ScopedSpan span(&rec, "platform.invoke_on", i);
        out.record = cluster.invokeOn(target, fn.name, pinned).record;
    };

    auto serveWorkflow = [&](std::size_t i) {
        Outcome &out = outcomes[i];
        out.isWorkflow = true;
        for (std::size_t m = 0; m < machines; ++m)
            advanceMachineTo(m, stream[i].atSec);
        const workflow::WorkflowSpec &spec = config.workflows
            [static_cast<std::size_t>(stream[i].workflow) %
             config.workflows.size()];
        sandbox::Machine &m0 = cluster.machine(0);
        ScopedSpan span(&rec, "workflow.run", i);
        out.wf = engine.run(
            spec, trace::TraceContext(
                      m0.tracer(), m0.ctx().clock(), 0,
                      kFleetTraceIdBase + static_cast<trace::TraceId>(i)));
    };

    auto foldOne = [&](std::size_t i) {
        const Outcome &out = outcomes[i];
        if (out.isWorkflow) {
            ++report.workflowRuns;
            report.chainHopsLocal += out.wf.hopsLocal;
            report.chainHopsRemote += out.wf.hopsRemote;
            report.chainTransferBytes += out.wf.transferBytes;
            report.chainE2e.add(out.wf.e2e);
            return;
        }
        const load::FleetFunction &fn = population.fn(stream[i].fn);
        scaler.observeArrival(stream[i].fn, out.machine);
        scaler.afterInvoke(stream[i].fn, out.machine, out.record);
        report.expired += out.expired;
        const sim::SimTime at = sim::SimTime::seconds(stream[i].atSec);
        ++report.requests;
        if (out.record.reusedInstance) {
            ++report.reuses;
        } else {
            ++report.boots;
            report.boot.add(out.record.bootLatency);
            report.bootMsWindows.record(at, out.record.bootLatency.toMs());
        }
        ++report.tierCounts[out.record.tierServed];
        const sim::SimTime sojourn = out.queued + out.record.endToEnd();
        report.endToEnd.add(sojourn);
        report.queueWait.add(out.queued);
        report.e2eMsWindows.record(at, sojourn.toMs());
        report.busySeconds += out.record.endToEnd().toSec();
        const std::string tenant = load::Population::tenantName(fn.tenant);
        auto it = report.tenantE2eMs
                      .try_emplace(tenant, sim::WindowedHistogram(
                                               config.tenantWindow))
                      .first;
        it->second.record(at, sojourn.toMs());
        ++report.tenantRequests[tenant];
    };

    std::size_t pos = 0;
    while (pos < stream.size()) {
        while (next_tick <= stream[pos].atSec) {
            runTick(next_tick);
            next_tick += tick;
        }
        std::size_t end_pos = pos;
        while (end_pos < stream.size() && stream[end_pos].atSec < next_tick)
            ++end_pos;
        if (share_nothing) {
            std::vector<std::size_t> loads = cluster.instanceLoads();
            for (std::size_t i = pos; i < end_pos; ++i) {
                const load::FleetFunction &fn = population.fn(stream[i].fn);
                std::size_t target = 0;
                {
                    ScopedSpan span(&rec, "platform.route", i);
                    target = cluster.routeProjected(fn.name, loads);
                }
                ++loads[target];
                outcomes[i].machine = target;
            }
            for (std::size_t i = pos; i < end_pos; ++i)
                serveOne(i);
        } else {
            for (std::size_t i = pos; i < end_pos; ++i) {
                if (stream[i].workflow >= 0) {
                    serveWorkflow(i);
                    continue;
                }
                const load::FleetFunction &fn = population.fn(stream[i].fn);
                {
                    ScopedSpan span(&rec, "platform.route", i);
                    outcomes[i].machine = cluster.route(fn.name);
                }
                serveOne(i);
            }
        }
        for (std::size_t i = pos; i < end_pos; ++i)
            foldOne(i);
        pos = end_pos;
    }
    while (next_tick < s.traffic.durationSec - 1e-9) {
        runTick(next_tick);
        next_tick += tick;
    }
    runTick(s.traffic.durationSec);
    scaler.finalize();

    report.policy = scaler.counters();
    report.expired += report.policy.keepAliveExpired;
    report.avgResidentMiB =
        resident_samples > 0
            ? resident_sum / static_cast<double>(resident_samples)
            : 0.0;
    for (std::size_t m = 0; m < machines; ++m)
        report.machineSeconds +=
            (cluster.machine(m).ctx().clock().now() - start[m]).toSec();
    return report;
}

TracedResult
fleetTraced(FleetKind kind, std::uint64_t seed, SpanRecorder &rec)
{
    TracedResult out;
    const RepResult base = fleetRep(kind, seed);

    FleetSetup s = setupFleet(kind, seed);
    Counters before, after;
    {
        sim::StatRegistry merged;
        s.cluster->mergeStats(merged);
        before = snapshotCounters(merged);
    }
    RepResult scored;
    load::FleetReport report;
    try {
        report = tracedReplay(s, rec);
        scoreFleet(s, report, scored);
    } catch (const std::exception &e) {
        scored.attempted = s.tape.size();
        scored.failed = s.tape.size();
        scored.violations.push_back(std::string("exception: ") + e.what());
    }
    sim::StatRegistry merged;
    s.cluster->mergeStats(merged);
    after = snapshotCounters(merged);

    out.attempted = scored.attempted;
    out.failed = scored.failed;
    out.violations = scored.violations;
    out.notes.push_back(
        std::string("traced serial replay digest ") + scored.digest +
        (scored.digest == base.digest ? " matches" : " DIFFERS from") +
        " the untraced FleetDriver::run digest " + base.digest);

    counterMetrics(before, after, static_cast<double>(s.tape.size()),
                   out.layer);
    spanMetrics(rec, out.layer);
    out.layer["trace.overhead_frac"] = 0.0;
    out.layer["policy.prewarm_builds"] =
        static_cast<double>(report.policy.prewarmBuilds);
    out.layer["policy.prewarm_precision"] =
        report.policy.prewarmBuilds > 0
            ? static_cast<double>(report.policy.prewarmServedSforks) /
                  static_cast<double>(report.policy.prewarmBuilds)
            : 0.0;
    out.layer["fleet.queue_wait_p99_ms"] =
        report.queueWait.empty() ? 0.0 : report.queueWait.percentile(99);
    out.layer["workflow.chain_e2e_p90_ms"] =
        report.chainE2e.empty() ? 0.0 : report.chainE2e.percentile(90);

    std::vector<const snapshot::FuncImage *> images;
    for (const load::FleetFunction &fn : s.population->functions()) {
        const sandbox::FunctionArtifacts *a =
            s.cluster->platform(0).registry().find(fn.name);
        if (a != nullptr && a->separatedImage)
            images.push_back(a->separatedImage.get());
    }
    check(objgraphMetrics(images, out.layer), 1,
          "rebuilt image reconstructs differently", out.violations,
          out.failed);
    out.layer["sim.stat_incr_ns"] = statIncrNs(merged);
    return out;
}

} // namespace

int
fleetWorkers()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min(2u, hw));
}

RepResult
runRep(const std::string &workload, std::uint64_t seed)
{
    if (workload == "sfork-burst")
        return burstRep(seed, nullptr, nullptr, nullptr, nullptr);
    return fleetRep(workload == "fleet-flash" ? FleetKind::Flash
                                              : FleetKind::Stateful,
                    seed);
}

TracedResult
runTraced(const std::string &workload, std::uint64_t seed,
          SpanRecorder &rec)
{
    if (workload == "sfork-burst")
        return burstTraced(seed, rec);
    return fleetTraced(workload == "fleet-flash" ? FleetKind::Flash
                                                 : FleetKind::Stateful,
                       seed, rec);
}

} // namespace perfbench
