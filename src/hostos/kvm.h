/**
 * @file
 * KVM host-virtualization model (paper Fig. 16b/16c and Sec. 6.7).
 *
 * Captures the three host-side costs Catalyzer tunes: kvcalloc of VM
 * bookkeeping (mitigated with a dedicated cache), set_user_memory_region
 * latency (dominated by Page-Modification-Logging buffer work when PML is
 * enabled), and VCPU creation.
 */

#ifndef CATALYZER_HOSTOS_KVM_H
#define CATALYZER_HOSTOS_KVM_H

#include <cstdint>

#include "sim/context.h"

namespace catalyzer::hostos {

/** Host-wide KVM configuration knobs. */
struct KvmConfig
{
    /** Page Modification Logging; KVM default is on, Catalyzer disables. */
    bool pmlEnabled = true;
    /** Dedicated allocation cache added by Catalyzer (Fig. 16b). */
    bool kvcallocCacheEnabled = false;
};

/**
 * One VM's KVM-side state. Every ioctl charges its modelled latency to
 * the SimContext and bumps a counter, so both the boot pipelines and the
 * Fig. 16 micro-benches share one implementation.
 */
class KvmVm
{
  public:
    KvmVm(sim::SimContext &ctx, KvmConfig config);

    /** KVM_CREATE_VM plus the kvcalloc storm for VM bookkeeping. */
    void createVm();

    /** KVM_CREATE_VCPU. */
    void createVcpu();

    /**
     * KVM_SET_USER_MEMORY_REGION. Cost grows with the number of regions
     * already registered; PML adds per-VCPU dirty-log buffer work.
     * Returns the latency of this single ioctl (for Fig. 16c).
     */
    sim::SimTime setUserMemoryRegion();

    /** Register @p n regions (a sandbox registers ~11). */
    void setUserMemoryRegions(int n);

    int regions() const { return regions_; }
    bool created() const { return created_; }
    const KvmConfig &config() const { return config_; }

  private:
    sim::SimContext &ctx_;
    KvmConfig config_;
    bool created_ = false;
    int vcpus_ = 0;
    int regions_ = 0;
};

} // namespace catalyzer::hostos

#endif // CATALYZER_HOSTOS_KVM_H
