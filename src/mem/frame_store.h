/**
 * @file
 * Reference-counted physical frame store.
 *
 * Frames are the unit of real memory accounting: RSS/PSS figures in the
 * paper's memory experiments (Fig. 14, Table 3) are computed from frame
 * reference counts, exactly as Linux smaps does.
 *
 * Live frames are tracked as *spans*: maximal extents of consecutive
 * FrameIds sharing one reference count and source. Bulk operations
 * (allocateRange for an extent fill, refRange across an sfork,
 * unrefRange on unmap) touch one span instead of one hash entry per
 * page; single-frame ref/unref splits spans and stays exact.
 */

#ifndef CATALYZER_MEM_FRAME_STORE_H
#define CATALYZER_MEM_FRAME_STORE_H

#include <cstddef>
#include <map>

#include "mem/types.h"

namespace catalyzer::mem {

/** What a frame's contents came from; informs copy and PSS decisions. */
enum class FrameSource { Anonymous, PageCache };

/**
 * Allocator and reference counter for simulated physical frames.
 *
 * A frame exists while at least one mapping (or the page cache)
 * references it. The store never reuses a FrameId, which makes dangling
 * unref bugs detectable.
 */
class FrameStore
{
  public:
    FrameStore() = default;
    FrameStore(const FrameStore &) = delete;
    FrameStore &operator=(const FrameStore &) = delete;

    /** Allocate a frame with one reference. */
    FrameId allocate(FrameSource source) { return allocateRange(1, source); }

    /**
     * Allocate @p npages consecutive frames, each with one reference;
     * returns the first id.
     */
    FrameId allocateRange(std::size_t npages, FrameSource source);

    /** Add a reference to a live frame. */
    void ref(FrameId id) { refRange(id, 1); }

    /** Add one reference to each of @p npages consecutive live frames. */
    void refRange(FrameId id, std::size_t npages);

    /** Drop a reference; the frame is freed at zero. */
    void unref(FrameId id) { unrefRange(id, 1); }

    /** Drop one reference from each of @p npages consecutive frames. */
    void unrefRange(FrameId id, std::size_t npages);

    /** Current reference count (0 if freed/never allocated). */
    std::size_t refCount(FrameId id) const;

    /** Source tag of a live frame. */
    FrameSource source(FrameId id) const;

    /**
     * Walk [id, id+npages) in ascending order, split into maximal
     * segments of uniform (refs, source): fn(seg_npages, refs, source).
     * Every frame in the range must be live.
     */
    template <typename Fn>
    void
    forEachSegment(FrameId id, std::size_t npages, Fn &&fn) const
    {
        FrameId p = id;
        const FrameId end = id + npages;
        while (p < end) {
            auto it = findSpan(p);
            if (it == spans_.end())
                panicDead("FrameStore::forEachSegment", p);
            const FrameId span_end = it->first + it->second.npages;
            const FrameId seg_end = span_end < end ? span_end : end;
            fn(static_cast<std::size_t>(seg_end - p), it->second.refs,
               it->second.source);
            p = seg_end;
        }
    }

    /** Number of live frames (machine-wide RSS, in pages). */
    std::size_t liveFrames() const { return live_; }

  private:
    /** Consecutive frames [start, start+npages) with equal refs/source. */
    struct Span
    {
        std::size_t npages;
        std::size_t refs;
        FrameSource source;
    };

    using SpanMap = std::map<FrameId, Span>;

    /** Span containing @p id, or end() when the frame is not live. */
    SpanMap::const_iterator findSpan(FrameId id) const;
    SpanMap::iterator findSpanMutable(FrameId id);

    /** Split so that a span boundary falls at @p at (if covered). */
    void splitAt(FrameId at);

    /** Merge @p it with contiguous neighbors of equal refs/source. */
    SpanMap::iterator coalesce(SpanMap::iterator it);

    /** Coalesce every span overlapping [start, end] with its neighbors. */
    void coalesceRegion(FrameId start, FrameId end);

    [[noreturn]] static void panicDead(const char *op, FrameId id);

    SpanMap spans_;
    std::size_t live_ = 0;
    FrameId next_ = 1;
};

} // namespace catalyzer::mem

#endif // CATALYZER_MEM_FRAME_STORE_H
