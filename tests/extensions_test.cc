/**
 * @file
 * Tests for the extension features: the gVisor-ptrace platform variant,
 * user-guided pre-initialization (Sec. 6.7) and template refresh
 * (Sec. 6.8).
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "sandbox/pipelines.h"

namespace catalyzer {
namespace {

using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

TEST(GVisorPtraceTest, NoKvmButSlowerAppInit)
{
    Machine m1(42);
    FunctionRegistry r1(m1);
    const auto kvm = sandbox::bootSandbox(
        SandboxSystem::GVisor,
        r1.artifactsFor(apps::appByName("java-hello")));

    Machine m2(42);
    FunctionRegistry r2(m2);
    const auto ptrace = sandbox::bootSandbox(
        SandboxSystem::GVisorPtrace,
        r2.artifactsFor(apps::appByName("java-hello")));

    // No KVM ioctls on the ptrace platform.
    EXPECT_EQ(m2.ctx().stats().value("kvm.create_vm"), 0);
    EXPECT_GT(m1.ctx().stats().value("kvm.create_vm"), 0);
    // Sandbox construction is cheaper without virtualization setup...
    EXPECT_LT(ptrace.report.sandboxInit().toMs(),
              kvm.report.sandboxInit().toMs());
    // ...but interception makes application init slower overall.
    EXPECT_GT(ptrace.report.appInit().toMs(),
              kvm.report.appInit().toMs());
    EXPECT_STREQ(sandbox::sandboxSystemName(SandboxSystem::GVisorPtrace),
                 "gVisor-ptrace");
}

class WarmImageTest : public ::testing::Test
{
  protected:
    WarmImageTest() : machine(42), registry(machine), runtime(machine) {}
    Machine machine;
    FunctionRegistry registry;
    core::CatalyzerRuntime runtime;
};

TEST_F(WarmImageTest, WarmedImageCutsExecLatency)
{
    auto &fn = registry.artifactsFor(apps::appByName("pillow-filters"));

    auto before = runtime.bootCold(fn);
    const double exec_default = before.instance->invoke().toMs();

    runtime.warmFuncImage(fn, /*training_requests=*/3,
                          /*prep_fraction=*/0.6);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.images_warmed"), 1);

    auto after = runtime.bootCold(fn);
    EXPECT_DOUBLE_EQ(after.instance->prepFraction(), 0.6);
    const double exec_warmed = after.instance->invoke().toMs();
    EXPECT_LT(exec_warmed, exec_default * 0.6);
}

TEST_F(WarmImageTest, WarmedImagePropagatesToForkBoots)
{
    auto &fn = registry.artifactsFor(apps::appByName("ds-compose"));
    runtime.warmFuncImage(fn, 2, 0.5);
    auto fork = runtime.bootFork(fn);
    EXPECT_DOUBLE_EQ(fork.instance->prepFraction(), 0.5);
}

TEST_F(WarmImageTest, WarmingInvalidatesTheSharedBase)
{
    auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));
    runtime.bootWarm(fn);
    const auto old_base = fn.sharedBase;
    ASSERT_NE(old_base, nullptr);
    runtime.warmFuncImage(fn, 1, 0.4);
    EXPECT_EQ(fn.sharedBase, nullptr); // dropped; next boot remaps
    runtime.bootWarm(fn);
    EXPECT_NE(fn.sharedBase, old_base);
}

TEST(TemplateRefreshTest, RefreshRotatesTheLayout)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    runtime.prepareTemplate(fn);
    const auto salt_before =
        runtime.templateFor("c-hello")->proc().aslrSalt();

    runtime.refreshTemplate(fn);
    auto *fresh = runtime.templateFor("c-hello");
    ASSERT_NE(fresh, nullptr);
    // A new sandbox process: new layout salt for all future children.
    EXPECT_NE(fresh->proc().aslrSalt(), salt_before);
    EXPECT_EQ(machine.ctx().stats().value(
                  "catalyzer.template_refreshes"), 1);

    // The refreshed template still fork-boots correctly.
    auto fork = runtime.bootFork(fn);
    EXPECT_LT(fork.report.total().toMs(), 1.5);
}

} // namespace
} // namespace catalyzer
