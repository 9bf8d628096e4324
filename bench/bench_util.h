/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every binary regenerates one table or figure of the Catalyzer paper
 * (ASPLOS'20) from the simulated mechanisms, printing the same rows or
 * series the paper reports, plus the paper's reference numbers where the
 * text states them.
 */

#ifndef CATALYZER_BENCH_BENCH_UTIL_H
#define CATALYZER_BENCH_BENCH_UTIL_H

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace catalyzer::bench {

/** Standard banner naming the experiment being reproduced. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("Catalyzer reproduction: %s\n", figure);
    std::printf("%s\n", description);
    std::printf("==============================================================\n\n");
}

/** Closing note emitted by every harness. */
inline void
footer()
{
    std::printf("\nnote: latencies are virtual-clock values from the "
                "simulated host;\n"
                "      compare shapes and ratios against the paper, not "
                "absolute walltime.\n");
}

/** @p name from the environment as a double; @p fallback when unset
 *  or empty. */
inline double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

/** @p name from the environment as a size; @p fallback when unset or
 *  empty. */
inline std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0'
               ? static_cast<std::size_t>(std::atoll(v))
               : fallback;
}

/** @p name from the environment as a long; @p fallback when unset or
 *  empty. */
inline long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? std::atol(v) : fallback;
}

/**
 * Print one scripted expectation as "[ok]" or "[VIOLATED]"; returns 1
 * when @p assert_mode turns the violation into a failure, else 0.
 */
inline int
failures(bool assert_mode, bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "VIOLATED", what);
    return assert_mode && !ok ? 1 : 0;
}

} // namespace catalyzer::bench

#endif // CATALYZER_BENCH_BENCH_UTIL_H
