/**
 * @file
 * Tests for the parallel executor that serves per-machine fleet work
 * on worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "sim/executor.h"

namespace catalyzer::sim {
namespace {

TEST(ParallelExecutorTest, SerialModeRunsInIndexOrder)
{
    ParallelExecutor exec(1);
    EXPECT_TRUE(exec.serial());
    std::vector<std::size_t> order;
    exec.forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutorTest, ParallelModeRunsEveryIndexExactlyOnce)
{
    ParallelExecutor exec(8);
    EXPECT_FALSE(exec.serial());
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    exec.forEach(kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutorTest, WritesAreVisibleAfterTheImplicitBarrier)
{
    ParallelExecutor exec(4);
    std::vector<std::size_t> out(256, 0);
    exec.forEach(out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutorTest, ThreadsFromEnvParsesAndClamps)
{
    ::unsetenv("CATALYZER_SIM_THREADS");
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(4), 4);
    ::setenv("CATALYZER_SIM_THREADS", "8", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 8);
    ::setenv("CATALYZER_SIM_THREADS", "0", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 1);
    ::setenv("CATALYZER_SIM_THREADS", "100000", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 256);
    ::setenv("CATALYZER_SIM_THREADS", "not-a-number", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 3);
    ::unsetenv("CATALYZER_SIM_THREADS");
}

} // namespace
} // namespace catalyzer::sim
