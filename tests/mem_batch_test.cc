/**
 * @file
 * Property test for batched fault resolution: touchRange() over any
 * extent, and touchStrided() over any strided page stream, must be
 * observationally identical to the per-page touch() loop they replace
 * — same virtual clock, same counters, same observer event sequence,
 * same RNG evolution, same memory accounting.
 *
 * Two twin worlds (own SimContext with the same seed, own FrameStore,
 * mirrored layouts) are driven through the same access script; world A
 * touches page by page, world B uses the batched call. Every observable
 * must match bit-for-bit.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mem/address_space.h"
#include "mem/backing_file.h"
#include "mem/base_mapping.h"
#include "mem/frame_store.h"
#include "sim/context.h"

namespace catalyzer::mem {
namespace {

using sim::SimContext;

/** Records every fault callback as a flat, comparable sequence. */
class RecordingObserver : public FaultObserver
{
  public:
    using Event = std::tuple<PageIndex, bool, FaultResult>;

    void
    onFault(PageIndex page, bool write, FaultResult result) override
    {
        events.push_back({page, write, result});
    }

    std::vector<Event> events;
};

/**
 * Extent-aware observer: overrides onFaultRange and re-expands it, so
 * the test also proves batched notifications carry the same extents.
 */
class RangeObserver : public FaultObserver
{
  public:
    void
    onFault(PageIndex page, bool write, FaultResult result) override
    {
        onFaultRange(page, 1, write, result);
    }

    void
    onFaultRange(PageIndex start, std::size_t npages, bool write,
                 FaultResult result) override
    {
        for (std::size_t k = 0; k < npages; ++k)
            pages.push_back({start + k, write, result});
    }

    std::vector<std::tuple<PageIndex, bool, FaultResult>> pages;
};

/** One self-contained simulated world with a mirrored memory layout. */
struct World
{
    SimContext ctx{1234};
    FrameStore store;
    BackingFile file{store, "/img", 256};
    BackingFile image{store, "/func.img", 64};
    std::shared_ptr<BaseMapping> base =
        std::make_shared<BaseMapping>(store, image, 0, 64, "base");
    AddressSpace space{ctx, store, "w"};
    PageIndex anon_va = 0;
    PageIndex filep_va = 0;
    PageIndex files_va = 0;
    PageIndex base_va = 0;

    World()
    {
        anon_va = space.mapAnon(128, true, "heap");
        filep_va = space.mapFile(file, 0, 96, MapKind::FilePrivate, true,
                                 "code");
        files_va = space.mapFile(file, 96, 64, MapKind::FileShared, true,
                                 "shm");
        base_va = space.attachBase(base);
    }
};

/** One scripted range access: offsets are VMA-relative. */
struct Access
{
    enum class Window { Anon, FilePrivate, FileShared, Base } window;
    PageIndex offset;
    std::size_t npages;
    bool write;
    bool cold;
};

PageIndex
windowStart(const World &w, Access::Window window)
{
    switch (window) {
      case Access::Window::Anon: return w.anon_va;
      case Access::Window::FilePrivate: return w.filep_va;
      case Access::Window::FileShared: return w.files_va;
      case Access::Window::Base: return w.base_va;
    }
    return 0;
}

/** Deterministic script mixing fills, re-reads, COW, cold and base. */
std::vector<Access>
script()
{
    using W = Access::Window;
    std::vector<Access> s = {
        {W::Anon, 0, 32, false, false},        // demand-zero fill
        {W::Anon, 16, 32, true, false},        // half present, half fill
        {W::Anon, 0, 48, false, false},        // all present: no faults
        {W::FilePrivate, 0, 24, false, true},  // cold file fill (RNG)
        {W::FilePrivate, 8, 24, true, false},  // COW over private file
        {W::FileShared, 0, 16, true, false},   // shared file, write-through
        {W::FileShared, 8, 16, false, true},   // mixed present/cold fill
        {W::Base, 0, 32, false, false},        // base fill + hits
        {W::Base, 8, 12, true, false},         // base COW into private
        {W::Base, 0, 32, false, false},        // base hits + private hits
        {W::Anon, 100, 1, true, false},        // single-page extents
        {W::Anon, 101, 1, true, false},
        {W::FilePrivate, 90, 6, false, true},  // tail of the VMA, cold
    };
    // Striding writes: the invoke()-style scattered single-page COW
    // pattern, then one large range crossing all the holes.
    for (PageIndex p = 48; p < 96; p += 5)
        s.push_back({W::Anon, p, 1, true, false});
    s.push_back({W::Anon, 40, 80, true, false});
    return s;
}

/**
 * Assert every observable of the two worlds matches, judging the
 * address spaces @p sa (in @p a) and @p sb (in @p b).
 */
void
expectSpacesEqual(World &a, const AddressSpace &sa, World &b,
                  const AddressSpace &sb, const char *at)
{
    EXPECT_EQ(a.ctx.now().toNs(), b.ctx.now().toNs()) << at;
    EXPECT_EQ(a.ctx.stats().all(), b.ctx.stats().all()) << at;
    EXPECT_EQ(sa.privatePages(), sb.privatePages()) << at;
    EXPECT_EQ(sa.rssPages(), sb.rssPages()) << at;
    EXPECT_DOUBLE_EQ(sa.pssBytes(), sb.pssBytes()) << at;
    EXPECT_EQ(a.store.liveFrames(), b.store.liveFrames()) << at;
    EXPECT_EQ(a.base->residentPages(), b.base->residentPages()) << at;
    // Same RNG evolution: the next draw must match in both worlds.
    EXPECT_EQ(a.ctx.rng().next64(), b.ctx.rng().next64()) << at;
}

/** Assert every observable of the two worlds matches. */
void
expectWorldsEqual(World &a, World &b, const char *at)
{
    expectSpacesEqual(a, a.space, b, b.space, at);
}

TEST(MemBatchProperty, TouchRangeMatchesPerPageLoop)
{
    World a; // per-page loop
    World b; // batched touchRange
    RecordingObserver obs_a;
    RecordingObserver obs_b;
    a.space.setFaultObserver(&obs_a);
    b.space.setFaultObserver(&obs_b);

    for (const Access &acc : script()) {
        const PageIndex start_a = windowStart(a, acc.window) + acc.offset;
        const PageIndex start_b = windowStart(b, acc.window) + acc.offset;
        std::size_t faults_a = 0;
        for (std::size_t k = 0; k < acc.npages; ++k) {
            if (a.space.touch(start_a + k, acc.write, acc.cold) !=
                FaultResult::None)
                ++faults_a;
        }
        const std::size_t faults_b =
            b.space.touchRange(start_b, acc.npages, acc.write, acc.cold);
        EXPECT_EQ(faults_a, faults_b);
        expectWorldsEqual(a, b, "mid-script");
    }

    // The observer saw the same page/write/result sequence (pages are
    // compared VMA-relative since the two worlds share a layout).
    ASSERT_EQ(obs_a.events.size(), obs_b.events.size());
    for (std::size_t i = 0; i < obs_a.events.size(); ++i)
        EXPECT_EQ(obs_a.events[i], obs_b.events[i]) << "event " << i;
    a.space.setFaultObserver(nullptr);
    b.space.setFaultObserver(nullptr);
}

TEST(MemBatchProperty, RangeObserverSeesSameExpansion)
{
    World a;
    World b;
    RecordingObserver obs_a; // default per-page fan-out
    RangeObserver obs_b;     // extent-aware override
    a.space.setFaultObserver(&obs_a);
    b.space.setFaultObserver(&obs_b);

    for (const Access &acc : script()) {
        for (std::size_t k = 0; k < acc.npages; ++k)
            a.space.touch(windowStart(a, acc.window) + acc.offset + k,
                          acc.write, acc.cold);
        b.space.touchRange(windowStart(b, acc.window) + acc.offset,
                           acc.npages, acc.write, acc.cold);
    }

    ASSERT_EQ(obs_a.events.size(), obs_b.pages.size());
    for (std::size_t i = 0; i < obs_a.events.size(); ++i)
        EXPECT_EQ(obs_a.events[i], obs_b.pages[i]) << "event " << i;
    a.space.setFaultObserver(nullptr);
    b.space.setFaultObserver(nullptr);
}

TEST(MemBatchProperty, ForkCowLockstep)
{
    World a;
    World b;

    // Populate, fork, then resolve COW from both sides of each world.
    for (std::size_t k = 0; k < 64; ++k)
        a.space.touch(a.anon_va + k, true);
    b.space.touchRange(b.anon_va, 64, true);
    expectWorldsEqual(a, b, "pre-fork");

    auto child_a = a.space.forkCow("child");
    auto child_b = b.space.forkCow("child");
    expectWorldsEqual(a, b, "post-fork");

    std::size_t faults_a = 0;
    for (std::size_t k = 0; k < 32; ++k) {
        if (child_a->touch(a.anon_va + k, true) != FaultResult::None)
            ++faults_a;
    }
    EXPECT_EQ(faults_a, child_b->touchRange(b.anon_va, 32, true));
    // Parent resolves the other half: sole-owner reuse after child
    // copies, plain COW where the child has not written.
    std::size_t parent_faults_a = 0;
    for (std::size_t k = 0; k < 64; ++k) {
        if (a.space.touch(a.anon_va + k, true) != FaultResult::None)
            ++parent_faults_a;
    }
    EXPECT_EQ(parent_faults_a, b.space.touchRange(b.anon_va, 64, true));
    expectWorldsEqual(a, b, "post-cow");
}

/** One scripted strided access: the offset is window-relative. */
struct StridedAccess
{
    Access::Window window;
    PageIndex offset;
    std::size_t count;
    std::size_t stride;
    std::size_t writes;
    bool cold;
};

/**
 * Touch @p acc in both worlds, page by page in @p a and through
 * touchStrided in @p b, on the spaces @p sa / @p sb; assert the fault
 * counts and every observable match.
 */
void
touchBothStrided(World &a, AddressSpace &sa, World &b, AddressSpace &sb,
                 const StridedAccess &acc)
{
    const PageIndex start_a = windowStart(a, acc.window) + acc.offset;
    const PageIndex start_b = windowStart(b, acc.window) + acc.offset;
    std::size_t faults_a = 0;
    for (std::size_t k = 0; k < acc.count; ++k) {
        if (sa.touch(start_a + k * acc.stride, k < acc.writes, acc.cold) !=
            FaultResult::None)
            ++faults_a;
    }
    EXPECT_EQ(faults_a, sb.touchStrided(start_b, acc.count, acc.stride,
                                        acc.writes, acc.cold));
    expectSpacesEqual(a, sa, b, sb, "strided");
}

/**
 * Strided scripts over every window, then a forkCow child whose COW
 * writes mix shared frames (Cow) and sole-owner frames (CowReuse);
 * @p observe arms a RecordingObserver on every space first.
 */
void
checkTouchStridedMatchesPerPageLoop(bool observe)
{
    using W = Access::Window;
    World a; // per-page loop
    World b; // touchStrided
    // The heap's last page, a guard page, then the private file
    // mapping: a stride of 4 from heap page 125 crosses into it. The
    // same holds from shared-file page 61 into the base window, where
    // the batched walk starts mid-stream (k = 1, writes left: 2).
    ASSERT_EQ(a.filep_va, a.anon_va + 129);
    ASSERT_EQ(a.base_va, a.files_va + 65);
    RecordingObserver obs_a;
    RecordingObserver obs_b;
    if (observe) {
        a.space.setFaultObserver(&obs_a);
        b.space.setFaultObserver(&obs_b);
    }

    const std::vector<StridedAccess> script = {
        {W::Anon, 0, 0, 3, 0, false},          // count 0: no-op
        {W::Anon, 5, 1, 7, 1, false},          // count 1, written
        {W::Anon, 0, 20, 4, 8, false},         // demand-zero fills
        {W::Anon, 0, 40, 2, 40, false},        // half present, all writes
        {W::Anon, 60, 30, 1, 0, false},        // stride 1, mixed
        {W::FilePrivate, 0, 12, 3, 0, true},   // cold fills (RNG)
        {W::FilePrivate, 0, 24, 3, 24, true},  // COW present + fill-COW
        {W::FileShared, 1, 10, 5, 4, true},    // shared, cold, writes
        {W::FileShared, 0, 30, 2, 0, false},   // shared, hits + fills
        {W::FileShared, 61, 8, 4, 3, false},   // shared file into base
        {W::Base, 0, 16, 4, 0, false},         // base fills
        {W::Base, 0, 32, 2, 10, true},         // fills, hits, BaseCow
        {W::Base, 1, 21, 3, 21, false},        // BaseCow over hits
        {W::Anon, 125, 10, 4, 6, true},        // heap into file window
        {W::Base, 40, 24, 1, 24, true},        // stride 1, writes==count
    };
    for (const StridedAccess &acc : script)
        touchBothStrided(a, a.space, b, b.space, acc);

    auto child_a = a.space.forkCow("child");
    auto child_b = b.space.forkCow("child");
    if (observe) {
        child_a->setFaultObserver(&obs_a);
        child_b->setFaultObserver(&obs_b);
    }
    expectSpacesEqual(a, *child_a, b, *child_b, "post-fork");
    // The parent copies every other heap page, leaving the child sole
    // owner of those frames: the child then meets CowReuse on them and
    // Cow on the still-shared pages between, plus demand-zero holes.
    touchBothStrided(a, a.space, b, b.space,
                     {W::Anon, 0, 32, 2, 32, false});
    touchBothStrided(a, *child_a, b, *child_b,
                     {W::Anon, 0, 100, 1, 100, false});
    // Privately COWed base pages (shared with the parent: Cow), base
    // pages reached through the Base-EPT (BaseCow) and COW file pages.
    touchBothStrided(a, *child_a, b, *child_b,
                     {W::Base, 0, 32, 2, 32, false});
    touchBothStrided(a, *child_a, b, *child_b,
                     {W::FilePrivate, 0, 40, 2, 30, true});
    // The parent now owns its base copies alone: CowReuse.
    touchBothStrided(a, a.space, b, b.space,
                     {W::Base, 0, 64, 1, 64, false});

    ASSERT_EQ(obs_a.events.size(), obs_b.events.size());
    for (std::size_t i = 0; i < obs_a.events.size(); ++i)
        EXPECT_EQ(obs_a.events[i], obs_b.events[i]) << "event " << i;
    if (observe) {
        // The script reaches every fault class.
        for (const FaultResult r :
             {FaultResult::MinorAnon, FaultResult::MinorFile,
              FaultResult::Cow, FaultResult::CowReuse, FaultResult::BaseHit,
              FaultResult::BaseFill, FaultResult::BaseCow}) {
            EXPECT_TRUE(std::any_of(obs_a.events.begin(), obs_a.events.end(),
                                    [r](const RecordingObserver::Event &e) {
                                        return std::get<2>(e) == r;
                                    }))
                << static_cast<int>(r);
        }
        child_a->setFaultObserver(nullptr);
        child_b->setFaultObserver(nullptr);
        a.space.setFaultObserver(nullptr);
        b.space.setFaultObserver(nullptr);
    }
}

TEST(MemBatchProperty, TouchStridedMatchesPerPageLoop)
{
    checkTouchStridedMatchesPerPageLoop(/*observe=*/false);
    checkTouchStridedMatchesPerPageLoop(/*observe=*/true);
}

} // namespace
} // namespace catalyzer::mem
