#include "mem/backing_file.h"

#include "sim/logging.h"

namespace catalyzer::mem {

BackingFile::BackingFile(FrameStore &store, std::string name,
                         std::size_t npages)
    : store_(store), name_(std::move(name)), npages_(npages)
{
}

BackingFile::~BackingFile()
{
    evict();
}

FrameId
BackingFile::frameFor(sim::SimContext &ctx, PageIndex page,
                      bool assume_cold)
{
    if (page >= npages_)
        sim::panic("BackingFile %s: page %llu beyond EOF (%zu pages)",
                   name_.c_str(), static_cast<unsigned long long>(page),
                   npages_);
    auto it = cache_.find(page);
    if (it != cache_.end()) {
        ctx.stats().incr("mem.page_cache_hits");
        return it->second;
    }
    // Page-cache fill. On a cold boot some of these go to storage.
    const auto &costs = ctx.costs();
    if (assume_cold && ctx.rng().chance(costs.pageCacheMissColdBoot)) {
        ctx.chargeCounted("mem.page_cache_storage_reads",
                          costs.demandFaultFileCold);
    } else {
        ctx.stats().incr("mem.page_cache_fills");
    }
    const FrameId frame = store_.allocate(FrameSource::PageCache);
    fill(page, frame);
    return frame;
}

FrameId
BackingFile::prefetchFrame(sim::SimContext &ctx, PageIndex page,
                           bool *from_cache)
{
    if (page >= npages_)
        sim::panic("BackingFile %s: prefetch of page %llu beyond EOF "
                   "(%zu pages)",
                   name_.c_str(), static_cast<unsigned long long>(page),
                   npages_);
    auto it = cache_.find(page);
    if (it != cache_.end()) {
        if (from_cache)
            *from_cache = true;
        ctx.stats().incr("mem.page_cache_hits");
        return it->second;
    }
    if (from_cache)
        *from_cache = false;
    ctx.stats().incr("mem.page_cache_prefetch_fills");
    const FrameId frame = store_.allocate(FrameSource::PageCache);
    fill(page, frame);
    return frame;
}

bool
BackingFile::resident(PageIndex page) const
{
    return cache_.contains(page);
}

void
BackingFile::fill(PageIndex page, FrameId frame)
{
    cache_.emplace(page, frame);
    if (resident_sum_ != nullptr)
        ++*resident_sum_;
}

void
BackingFile::evict()
{
    for (auto &[page, frame] : cache_)
        store_.unref(frame);
    if (resident_sum_ != nullptr)
        *resident_sum_ -= cache_.size();
    cache_.clear();
}

void
BackingFile::attachResidency(std::size_t *resident_pages)
{
    if (resident_sum_ != nullptr)
        sim::panic("BackingFile %s: residency already attached",
                   name_.c_str());
    resident_sum_ = resident_pages;
    *resident_sum_ += cache_.size();
}

void
BackingFile::detachResidency()
{
    if (resident_sum_ == nullptr)
        return;
    *resident_sum_ -= cache_.size();
    resident_sum_ = nullptr;
}

} // namespace catalyzer::mem
