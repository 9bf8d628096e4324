/**
 * @file
 * Priority-based boot-policy management (paper Sec. 6.9).
 *
 * Fork boot is the fastest path but each template sandbox holds real
 * memory (a SPECjbb template costs >200 MB), so a platform must choose
 * *which* functions deserve one. The paper's guidance: private
 * platforms assign priorities; public ones use hints plus observed
 * traffic. BootPolicyManager implements that: it scores functions by
 * priority and recent invocation rate and keeps templates for the top
 * scorers within a memory budget, falling back to warm/cold restore for
 * everything else (the platform's CatalyzerAuto strategy escalates
 * automatically once a template exists).
 */

#ifndef CATALYZER_PLATFORM_POLICY_H
#define CATALYZER_PLATFORM_POLICY_H

#include <map>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace catalyzer::platform {

/** Operator-assigned importance of a function. */
enum class FunctionPriority { High, Normal, Low };

const char *functionPriorityName(FunctionPriority priority);

/** Policy knobs. */
struct PolicyConfig
{
    /** Total memory the template pool may hold. */
    std::size_t templateMemoryBudgetBytes = 512u << 20;
    /** Invocations (since last rebalance) for a Normal function to be
     *  considered hot. */
    std::size_t hotThreshold = 4;
    /**
     * When a function goes fully cold (no traffic, no live instances),
     * also release its shared Base-EPT and func-image page cache at
     * rebalance. The working-set prefetcher makes this affordable: the
     * next cold boot re-loads the recorded working set in a few batched
     * reads instead of a storm of random demand faults.
     */
    bool reclaimColdBases = false;
};

/**
 * Tracks traffic, scores functions and maintains the template pool.
 * Use it as the invoke() front door so observations stay accurate.
 */
class BootPolicyManager
{
  public:
    BootPolicyManager(ServerlessPlatform &platform, PolicyConfig config);

    /** Set a function's priority (defaults to Normal). */
    void setPriority(const std::string &function_name,
                     FunctionPriority priority);
    FunctionPriority priority(const std::string &function_name) const;

    /** Invoke through the policy (observes traffic). */
    InvocationRecord invoke(const std::string &function_name);

    /** Record an invocation made directly on the platform. */
    void observe(const std::string &function_name);

    /**
     * Adopt a template built outside rebalance() (a fleet autoscaler's
     * pre-warm): the pool accounts for it and rebalance manages its
     * lifetime from now on.
     */
    void noteExternalTemplate(const std::string &function_name);

    /**
     * Raise a function's traffic counter to at least @p weight so the
     * next rebalances treat it as hot. Used by predictive pre-warm: the
     * build lands *before* the burst, and without the credit the very
     * next rebalance would drop the template it just paid for. Decay
     * ages the credit out normally if the predicted traffic never comes.
     */
    void grantPrewarmCredit(const std::string &function_name,
                            double weight);

    /** Replace the template-pool memory budget (autoscaling). */
    void setTemplateMemoryBudget(std::size_t bytes);

    /**
     * Re-evaluate the template pool: build templates for the hottest /
     * highest-priority functions while under the memory budget; drop
     * templates whose functions went cold. Returns the number of
     * template builds plus drops performed.
     */
    std::size_t rebalance();

    /** Current template-pool memory. */
    std::size_t templateMemoryBytes() const;

    /** Functions currently holding a template. */
    std::vector<std::string> templatedFunctions() const;

    const PolicyConfig &config() const { return config_; }

  private:
    struct FunctionState
    {
        FunctionPriority priority = FunctionPriority::Normal;
        double recentInvocations = 0.0;
        bool hasTemplate = false;
    };

    double score(const FunctionState &state) const;

    ServerlessPlatform &platform_;
    PolicyConfig config_;
    std::map<std::string, FunctionState> functions_;
};

} // namespace catalyzer::platform

#endif // CATALYZER_PLATFORM_POLICY_H
