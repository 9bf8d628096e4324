/**
 * @file
 * Page-cache model for file-backed mappings.
 *
 * A BackingFile stands for an on-disk object (a func-image, a binary, a
 * rootfs layer). The first fault on a page fills the host page cache
 * (charged as an SSD read on a cold boot); later faults from any sandbox
 * share the cached frame, which is what makes Catalyzer's warm boots and
 * Base-EPT sharing cheap.
 */

#ifndef CATALYZER_MEM_BACKING_FILE_H
#define CATALYZER_MEM_BACKING_FILE_H

#include <string>
#include <unordered_map>

#include "mem/frame_store.h"
#include "mem/types.h"
#include "sim/context.h"

namespace catalyzer::mem {

/**
 * One file participating in mmap, with its resident page-cache pages.
 * The page cache holds one reference on each resident frame.
 */
class BackingFile
{
  public:
    /**
     * @param store   Machine-wide frame store.
     * @param name    Diagnostic path.
     * @param npages  File length in pages.
     */
    BackingFile(FrameStore &store, std::string name, std::size_t npages);
    ~BackingFile();

    BackingFile(const BackingFile &) = delete;
    BackingFile &operator=(const BackingFile &) = delete;

    /**
     * Return the page-cache frame for @p page, filling the cache on a
     * miss. @p assume_cold makes the fill pay the storage-read cost with
     * the cold-boot miss probability from the cost model.
     */
    FrameId frameFor(sim::SimContext &ctx, PageIndex page,
                     bool assume_cold);

    /**
     * Page-cache fill for a batched prefetch read: installs the frame
     * without charging any latency (the prefetcher accounts for the
     * whole batch as one sequential SSD read). @p from_cache reports
     * whether the page was already resident, i.e. no storage read was
     * needed for it.
     */
    FrameId prefetchFrame(sim::SimContext &ctx, PageIndex page,
                          bool *from_cache);

    /** True if @p page is already resident in the page cache. */
    bool resident(PageIndex page) const;

    /** Drop the whole page cache for this file. */
    void evict();

    std::size_t npages() const { return npages_; }
    std::size_t residentPages() const { return cache_.size(); }
    const std::string &name() const { return name_; }

    /**
     * Keep @p *resident_pages equal to a running sum that includes this
     * file's residentPages(): adds them now, then reports every fill
     * and evict() until detachResidency(). A file feeds at most one
     * sum at a time; attaching it to a second one panics.
     */
    void attachResidency(std::size_t *resident_pages);

    /** Take this file's pages back out of the attached sum. */
    void detachResidency();

  private:
    /** Record one page-cache fill of @p page to @p frame. */
    void fill(PageIndex page, FrameId frame);

    FrameStore &store_;
    std::string name_;
    std::size_t npages_;
    std::unordered_map<PageIndex, FrameId> cache_;
    /** The attached residency sum, or nullptr. */
    std::size_t *resident_sum_ = nullptr;
};

} // namespace catalyzer::mem

#endif // CATALYZER_MEM_BACKING_FILE_H
