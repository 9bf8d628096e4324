/**
 * @file
 * Ablation: keep-alive caching vs init-less booting under a skewed
 * workload (paper Sec. 2.2 and Sec. 6.9: "caching does not help with
 * the tail latency, which is dominated by the cold boot").
 *
 * A steady Zipf tape over ten synthetic functions replays through the
 * fleet driver on a one-machine cluster under four platform
 * configurations. The interesting column is the service-latency p99,
 * where keep-alive still pays full cold boots for unlucky functions
 * while Catalyzer's fork boot stays flat; the queue column shows the
 * no-cache baseline falling behind its arrivals.
 */

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "load/driver.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

using namespace sim::time_literals;

struct Config
{
    const char *label;
    platform::BootStrategy strategy;
    bool keepAlive;
    sim::SimTime ttl;
};

load::FleetReport
run(const Config &config, const load::Population &population)
{
    platform::PlatformConfig pc;
    pc.strategy = config.strategy;
    pc.reuseIdleInstances = config.keepAlive;
    platform::Cluster cluster(1, platform::PlacementPolicy::RoundRobin,
                              pc);

    load::TrafficSpec traffic;
    traffic.scenario = load::Scenario::Steady;
    traffic.durationSec = 8.0;
    traffic.seed = 7;
    load::FleetRunConfig run_config;
    run_config.policy.keepAliveTtl = config.ttl;
    run_config.policy.reactiveRebalance = false;
    return load::FleetDriver(cluster, population).run(traffic, run_config);
}

} // namespace

int
main()
{
    bench::banner("Ablation: keep-alive vs init-less booting",
                  "Zipf mix over 10 synthetic functions, 40 rps for 8 s "
                  "(virtual), one machine.");

    load::PopulationSpec pspec;
    pspec.functions = 10;
    pspec.tenants = 1;
    pspec.totalRps = 40.0;
    pspec.seed = 7;
    const load::Population population(pspec);

    const Config configs[] = {
        {"gVisor, no cache", platform::BootStrategy::GVisor, false,
         sim::SimTime::zero()},
        {"gVisor + keep-alive (2s TTL)", platform::BootStrategy::GVisor,
         true, 2_s},
        {"Catalyzer warm restore", platform::BootStrategy::CatalyzerWarm,
         false, sim::SimTime::zero()},
        {"Catalyzer fork boot", platform::BootStrategy::CatalyzerFork,
         false, sim::SimTime::zero()},
    };

    sim::TextTable table("Service latency (ms) under load");
    table.setHeader({"configuration", "req", "boots", "reuses", "p50",
                     "p95", "p99", "max", "queue p99"});
    for (const Config &config : configs) {
        const load::FleetReport report = run(config, population);
        // Service = sojourn minus queue wait: gateway + boot + exec.
        sim::LatencySeries service;
        for (std::size_t i = 0; i < report.endToEnd.count(); ++i)
            service.addMs(report.endToEnd.raw()[i] -
                          report.queueWait.raw()[i]);
        table.addRow({config.label, std::to_string(report.requests),
                      std::to_string(report.boots),
                      std::to_string(report.reuses),
                      sim::fmtMs(service.percentile(50)),
                      sim::fmtMs(service.percentile(95)),
                      sim::fmtMs(service.percentile(99)),
                      sim::fmtMs(service.max()),
                      sim::fmtMs(report.queueWait.percentile(99))});
    }
    table.print();
    std::printf("\ntakeaway: keep-alive improves the median but the "
                "tail stays at full cold-boot\nlatency; fork boot is a "
                "sustainable hot boot (Sec. 6.9).\n");
    bench::footer();
    return 0;
}
