/**
 * @file
 * Tests for the serverless platform: gateway, strategies, pools.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "platform/platform.h"

namespace catalyzer::platform {
namespace {

using sandbox::BootKind;
using sandbox::Machine;
using namespace sim::time_literals;

TEST(PlatformTest, InvokeBootsAndExecutes)
{
    Machine machine(42);
    ServerlessPlatform platform(machine,
                                PlatformConfig{BootStrategy::GVisor});
    platform.deploy(apps::appByName("c-hello"));
    const InvocationRecord rec = platform.invoke("c-hello");
    EXPECT_FALSE(rec.reusedInstance);
    EXPECT_GT(rec.bootLatency.toMs(), 50.0);
    EXPECT_GT(rec.execLatency.toNs(), 0);
    EXPECT_DOUBLE_EQ(rec.gatewayLatency.toMs(),
                     machine.ctx().costs().rpcDelivery.toMs());
    EXPECT_EQ(rec.endToEnd().toNs(),
              (rec.gatewayLatency + rec.bootLatency +
               rec.execLatency).toNs());
    EXPECT_EQ(platform.totalInstances(), 1u);
}

TEST(PlatformTest, ReuseIdleInstancesSkipsBoot)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::GVisor;
    config.reuseIdleInstances = true;
    ServerlessPlatform platform(machine, config);
    platform.deploy(apps::appByName("c-hello"));

    const InvocationRecord first = platform.invoke("c-hello");
    const InvocationRecord second = platform.invoke("c-hello");
    EXPECT_FALSE(first.reusedInstance);
    EXPECT_TRUE(second.reusedInstance);
    EXPECT_EQ(second.bootLatency.toNs(), 0);
    EXPECT_EQ(platform.totalInstances(), 1u);
}

TEST(PlatformTest, CatalyzerForkStrategy)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerFork});
    platform.prepare(apps::appByName("ds-text")); // builds the template

    const InvocationRecord rec = platform.invoke("ds-text");
    EXPECT_EQ(rec.bootKind, BootKind::ForkBoot);
    EXPECT_LT(rec.bootLatency.toMs(), 2.0);
}

TEST(PlatformTest, InstancesShareTheImagesKernelGraph)
{
    // One host copy per func-image: the checkpointed graph, the
    // separated image's restore result and the kernel state of every
    // restored or forked instance are one storage.
    for (const BootStrategy strategy :
         {BootStrategy::CatalyzerCold, BootStrategy::CatalyzerWarm,
          BootStrategy::CatalyzerFork}) {
        Machine machine(42);
        ServerlessPlatform platform(machine, PlatformConfig{strategy});
        const apps::AppProfile &app = apps::appByName("python-hello");
        platform.prepare(app);
        platform.invoke(app.name);
        platform.invoke(app.name);
        const snapshot::FuncImage &image =
            *platform.registry().artifactsFor(app).separatedImage;
        const objgraph::ObjectGraph &graph = image.state().kernelGraph;
        EXPECT_TRUE(
            image.separated().reconstruct().sharesStorageWith(graph));
        const auto instances = platform.instancesOf(app.name);
        ASSERT_EQ(instances.size(), 2u) << bootStrategyName(strategy);
        for (const sandbox::SandboxInstance *inst : instances)
            EXPECT_TRUE(inst->guest().state().sharesStorageWith(graph))
                << bootStrategyName(strategy);
    }
}

TEST(PlatformTest, AutoStrategyEscalates)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerAuto});
    platform.deploy(apps::appByName("python-hello"));

    // No template, no base: first boot is a cold restore.
    const InvocationRecord first = platform.invoke("python-hello");
    EXPECT_EQ(first.bootKind, BootKind::ColdRestore);

    // A base now exists: warm restore.
    const InvocationRecord second = platform.invoke("python-hello");
    EXPECT_EQ(second.bootKind, BootKind::WarmRestore);

    // With a template prepared: fork boot.
    platform.prepare(apps::appByName("python-hello"));
    const InvocationRecord third = platform.invoke("python-hello");
    EXPECT_EQ(third.bootKind, BootKind::ForkBoot);
    EXPECT_LT(third.bootLatency.toMs(), second.bootLatency.toMs());
}

TEST(PlatformTest, InstanceBookkeepingAndTeardown)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerWarm});
    platform.prepare(apps::appByName("ds-media"));
    for (int i = 0; i < 5; ++i)
        platform.invoke("ds-media");
    EXPECT_EQ(platform.runningCount("ds-media"), 5u);
    EXPECT_EQ(platform.instancesOf("ds-media").size(), 5u);

    const std::size_t frames_before = machine.frames().liveFrames();
    platform.teardown("ds-media");
    EXPECT_EQ(platform.runningCount("ds-media"), 0u);
    EXPECT_LT(machine.frames().liveFrames(), frames_before);
}

TEST(PlatformTest, RetainDisabledDropsInstances)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerWarm;
    config.retainInstances = false;
    ServerlessPlatform platform(machine, config);
    platform.prepare(apps::appByName("ds-text"));
    platform.invoke("ds-text");
    EXPECT_EQ(platform.totalInstances(), 0u);
}

TEST(PlatformTest, StrategyNames)
{
    EXPECT_STREQ(bootStrategyName(BootStrategy::CatalyzerFork),
                 "Catalyzer-sfork");
    EXPECT_STREQ(bootStrategyName(BootStrategy::GVisorRestore),
                 "gVisor-restore");
}

TEST(PlatformTest, EndToEndSpeedupOnDeathStar)
{
    // Fig. 13a's shape: 35-67x lower boot for sfork vs gVisor.
    Machine m_gv(42);
    ServerlessPlatform gv(m_gv, PlatformConfig{BootStrategy::GVisor});
    gv.deploy(apps::appByName("ds-compose"));
    const InvocationRecord gv_rec = gv.invoke("ds-compose");

    Machine m_cat(42);
    ServerlessPlatform cat(m_cat,
                           PlatformConfig{BootStrategy::CatalyzerFork});
    cat.prepare(apps::appByName("ds-compose"));
    const InvocationRecord cat_rec = cat.invoke("ds-compose");

    const double boot_speedup =
        gv_rec.bootLatency.toMs() / cat_rec.bootLatency.toMs();
    EXPECT_GT(boot_speedup, 30.0);
    // The first request pays the on-demand costs (COW faults, lazy
    // reconnects) but stays within a few ms of the fresh instance.
    EXPECT_LT(cat_rec.execLatency.toMs(),
              gv_rec.execLatency.toMs() * 4.5);
    // End to end, Catalyzer still wins by a wide margin.
    EXPECT_GT(gv_rec.endToEnd().toMs() / cat_rec.endToEnd().toMs(),
              10.0);
}

TEST(PlatformTtlTest, ExpireIdleHonorsAge)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerWarm;
    config.reuseIdleInstances = true;
    ServerlessPlatform plat(machine, config);
    plat.prepare(apps::appByName("ds-text"));
    plat.invoke("ds-text");
    EXPECT_EQ(plat.idleCount(), 1u);

    // Young instance survives.
    EXPECT_EQ(plat.expireIdle(10_s), 0u);
    machine.ctx().clock().advance(20_s);
    EXPECT_EQ(plat.expireIdle(10_s), 1u);
    EXPECT_EQ(plat.idleCount(), 0u);
}

/**
 * ImageStore::residentBytes() the way it was summed before the store
 * kept a running count: the chunk RAM tier plus the page-cache pages
 * of every locally cached image. On a platform the local copy of a
 * function's image is the function's own separated image.
 */
std::size_t
imageResidencyByScan(ServerlessPlatform &plat,
                     const std::vector<std::string> &functions)
{
    auto &images = plat.catalyzer().images();
    std::size_t bytes = images.chunkCache().ramBytes();
    for (const auto &name : functions) {
        if (!images.cachedLocally(
                name, snapshot::ImageFormat::SeparatedWellFormed))
            continue;
        sandbox::FunctionArtifacts *fn = plat.registry().find(name);
        bytes += mem::bytesForPages(
            fn->separatedImage->file().residentPages());
    }
    return bytes;
}

/**
 * Randomized audit of the platform's O(1) bookkeeping. A shadow model
 * keeps what a full walk of the pools would see (each parked
 * instance's park time, per function, oldest first) and after every
 * boot, reuse, retain, TTL or pressure expiry, teardown and memory
 * reclaim the test checks that
 *  - totalInstances() and idleCount() equal a walk of instancesOf();
 *  - expireIdle() reclaims exactly what an unconditional scan of the
 *    idle pools would;
 *  - the image store's residentBytes() equals the per-image sum.
 * Zygote prewarm is off, so nothing charges the clock after an
 * instance parks and the clock at invoke() return is its park time.
 */
TEST(PlatformTest, PrepareWithRemoteImagesPublishesTheImage)
{
    // prepare() builds the separated image offline; with remote images
    // that build stands for one made elsewhere, so the first boot must
    // find it published and fetch it exactly once.
    for (const BootStrategy strategy :
         {BootStrategy::CatalyzerCold, BootStrategy::CatalyzerWarm}) {
        SCOPED_TRACE(bootStrategyName(strategy));
        Machine machine(7);
        PlatformConfig config;
        config.strategy = strategy;
        core::CatalyzerOptions options;
        options.remoteImages = true;
        ServerlessPlatform plat(machine, config, options);
        plat.prepare(apps::appByName("c-hello"));
        plat.invoke("c-hello");
        EXPECT_EQ(machine.ctx().stats().value(
                      "snapshot.image_remote_fetches"),
                  1);
    }
}

TEST(PlatformCounterAudit, CountersMatchAFullScanUnderRandomOps)
{
    struct Setup
    {
        BootStrategy strategy;
        bool reuse;
        bool chunked;
    };
    for (const Setup setup : {Setup{BootStrategy::CatalyzerCold, true, false},
                              Setup{BootStrategy::CatalyzerAuto, true, true},
                              Setup{BootStrategy::CatalyzerWarm, false,
                                    false}}) {
        SCOPED_TRACE(bootStrategyName(setup.strategy));
        Machine machine(99);
        PlatformConfig config;
        config.strategy = setup.strategy;
        config.reuseIdleInstances = setup.reuse;
        core::CatalyzerOptions options;
        options.remoteImages = true;
        options.zygotePrewarm = 0;
        options.chunkedImages.enabled = setup.chunked;
        options.chunkedImages.ramBudgetBytes = 8u << 20;
        ServerlessPlatform plat(machine, config, options);
        const std::vector<std::string> functions = {
            "c-hello", "python-hello", "ds-text", "nodejs-hello"};
        for (const auto &fn : functions)
            plat.prepare(apps::appByName(fn));

        std::map<std::string, std::deque<sim::SimTime>> idle;
        std::map<std::string, std::size_t> running;
        sim::Rng rng(setup.reuse ? 5 : 6);
        std::size_t expired = 0, reclaimed_bytes = 0;
        for (int step = 0; step < 300; ++step) {
            const std::string &fn =
                functions[rng.uniformInt(functions.size())];
            const double dice = rng.uniform();
            auto &clock = machine.ctx().clock();
            if (dice < 0.5) {
                const InvocationRecord rec = plat.invoke(fn);
                if (setup.reuse) {
                    EXPECT_EQ(rec.reusedInstance, !idle[fn].empty());
                    if (!idle[fn].empty())
                        idle[fn].pop_back();
                    idle[fn].push_back(clock.now());
                } else {
                    ++running[fn];
                }
            } else if (dice < 0.7) {
                clock.advance(sim::SimTime::milliseconds(
                    rng.uniform(0.0, 40.0)));
            } else if (dice < 0.85) {
                // Mostly keep-alive TTLs; one in four is the
                // autoscaler's 1 ms pressure expiry.
                const sim::SimTime ttl =
                    rng.uniform() < 0.25
                        ? sim::SimTime::milliseconds(1.0)
                        : sim::SimTime::milliseconds(
                              rng.uniform(0.0, 120.0));
                const sim::SimTime now = clock.now();
                std::size_t want = 0;
                for (auto &[name, parked] : idle) {
                    while (!parked.empty() &&
                           now - parked.front() > ttl) {
                        parked.pop_front();
                        ++want;
                    }
                }
                EXPECT_EQ(plat.expireIdle(ttl), want) << "step " << step;
                expired += want;
            } else if (dice < 0.93) {
                plat.teardown(fn);
                idle.erase(fn);
                running.erase(fn);
            } else {
                const bool live = !idle[fn].empty() || running[fn] > 0;
                const std::size_t released =
                    plat.reclaimFunctionMemory(fn);
                if (live) {
                    EXPECT_EQ(released, 0u);
                }
                reclaimed_bytes += released;
            }

            std::size_t walked = 0, want_idle = 0, want_running = 0;
            for (const auto &name : functions)
                walked += plat.instancesOf(name).size();
            for (const auto &[name, parked] : idle)
                want_idle += parked.size();
            for (const auto &[name, n] : running)
                want_running += n;
            ASSERT_EQ(plat.totalInstances(), walked) << "step " << step;
            ASSERT_EQ(walked, want_idle + want_running);
            ASSERT_EQ(plat.idleCount(), want_idle) << "step " << step;
            ASSERT_EQ(plat.catalyzer().images().residentBytes(),
                      imageResidencyByScan(plat, functions))
                << "step " << step;
        }
        if (setup.reuse) {
            EXPECT_GT(expired, 0u);
        }
        EXPECT_GT(reclaimed_bytes, 0u);
        EXPECT_GT(plat.catalyzer().images().residentBytes(), 0u);
    }
}

} // namespace
} // namespace catalyzer::platform
