/**
 * @file
 * The multi-threaded executor that serves per-machine work (fleet
 * priming, each epoch's per-machine arrival buckets) concurrently.
 * Determinism does not depend on thread count: workers only run
 * share-nothing per-machine work, and every cross-machine reduction
 * happens on the calling thread in a fixed order.
 */

#ifndef CATALYZER_SIM_EXECUTOR_H
#define CATALYZER_SIM_EXECUTOR_H

#include <cstddef>
#include <functional>

namespace catalyzer::sim {

/**
 * Fan-out helper for per-machine simulation work.
 *
 * forEach(n, fn) invokes fn(i) exactly once for every i in [0, n),
 * spread over min(workers, n) threads pulling indices from a shared
 * atomic counter. With workers <= 1 it degenerates to a plain serial
 * loop on the calling thread — the mode every byte-compare regression
 * baseline runs in.
 *
 * fn must not touch state shared across indices without its own
 * synchronization; the executor provides none beyond the implicit
 * barrier when forEach returns (all work finished, all writes made by
 * workers visible to the caller).
 */
class ParallelExecutor
{
  public:
    /** @p workers <= 1 means serial execution on the caller. */
    explicit ParallelExecutor(int workers) : workers_(workers) {}

    int workers() const { return workers_; }
    bool serial() const { return workers_ <= 1; }

    /** Run fn(0) .. fn(n-1), returning once all have finished. */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn) const;

    /**
     * Worker count from the CATALYZER_SIM_THREADS environment knob;
     * @p fallback when unset/empty/unparsable. Values are clamped to
     * [1, 256].
     */
    static int threadsFromEnv(int fallback = 1);

  private:
    int workers_;
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_EXECUTOR_H
