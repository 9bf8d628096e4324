/**
 * @file
 * Separated state recovery image (paper Sec. 3.2).
 *
 * At checkpoint time the discrete in-memory objects are re-organized into
 * a contiguous, page-aligned arena; pointers are zeroed and recorded in a
 * relation table mapping pointer-slot offsets to pointee offsets. Restore
 * is then stage-1 (map the arena — overlay memory) plus stage-2 (patch
 * the pointer slots through the relation table, in parallel), instead of
 * per-object deserialization.
 */

#ifndef CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H
#define CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "objgraph/object_graph.h"
#include "trace/trace.h"

namespace catalyzer::objgraph {

/** One relation-table entry: where a pointer lives -> what it points at. */
struct Reloc
{
    /** Byte offset of the pointer slot in the arena. */
    std::uint64_t slotOffset;
    /** Byte offset of the target object in the arena. */
    std::uint64_t targetOffset;
};

/**
 * The partially-deserialized metadata section of a func-image.
 *
 * The layout clusters pointer-bearing objects at the front of the arena
 * so that stage-2 pointer patching dirties (and therefore COWs) as few
 * pages as possible — this is what keeps the paper's per-instance
 * metadata cost in the hundreds-of-KB range (Table 3).
 *
 * A func-image holds one host copy of its metadata: the arena, one
 * relation table and the pointer-page list, plus an alias of the
 * checkpointed graph that every restored instance shares. There is no
 * separate decoded copy; the arena is checked against the checkpoint
 * once, on the first reconstruct().
 */
class SeparatedImage
{
  public:
    static constexpr std::size_t kObjectHeaderBytes = 16;
    static constexpr std::size_t kPointerSlotBytes = 8;
    static constexpr std::size_t kRelocEntryBytes = 16;

    /**
     * Re-organize a graph into the separated format (offline). The
     * image aliases @p graph copy-on-write instead of copying it.
     */
    static SeparatedImage build(const ObjectGraph &graph);

    /**
     * Stage-1 + stage-2: hand out the restored object graph, which is
     * bit-identical to the checkpointed one.
     *
     * The arena is immutable and shared, and stage-2 never copies it:
     * the patched pointer slots are the per-instance COW pages of the
     * real system (pointerPageList()). The first call verifies the
     * image against the checkpointed graph in one arena walk: every
     * header, payload fill and zeroed slot, and every relation-table
     * entry (present exactly once, in slot order, resolving to the
     * arena offset of the object the checkpoint references). Any
     * mismatch panics with "corruption". That call and every later one
     * return a copy-on-write alias of the checkpointed graph, so all
     * instances of a func-image share one host copy of its metadata.
     *
     * With an enabled @p trace, emits "arena-map", "relation-fixup" and
     * "arena-decode" child spans annotated with object/reloc counts
     * (the latencies of these passes are charged by the caller, so the
     * spans mainly carry structure and attribution).
     */
    ObjectGraph reconstruct(trace::TraceContext trace = {}) const;

    std::size_t objectCount() const { return graph_.objectCount(); }
    std::size_t relocCount() const { return relocs_.size(); }

    /** Arena extent. */
    std::size_t arenaBytes() const { return arena_->size(); }
    std::size_t arenaPages() const;

    /** Distinct arena pages containing at least one patched slot. */
    std::size_t pointerPages() const { return pointer_pages_.size(); }

    /**
     * Sorted arena-relative page indices dirtied by stage-2 patching.
     * These are exactly the pages a warm boot COWs into its Private-EPT
     * (the per-instance metadata cost of Table 3).
     */
    const std::vector<std::uint64_t> &
    pointerPageList() const
    {
        return pointer_pages_;
    }

    /** Relation table size on disk / in memory. */
    std::size_t
    relocTableBytes() const
    {
        return relocs_.size() * kRelocEntryBytes;
    }

    /** The relation table, in ascending slot offset. */
    const std::vector<Reloc> &relocs() const { return relocs_; }

    /** Raw arena bytes (the image's metadata section contents). */
    const std::vector<std::uint8_t> &arena() const { return *arena_; }

    /**
     * Test support: flip one arena byte (simulated storage rot).
     * Detaches from any sharers and forgets the verification so the
     * corruption is actually re-read.
     */
    void
    corruptByteForTesting(std::uint64_t offset)
    {
        if (arena_.use_count() > 1)
            arena_ = std::make_shared<std::vector<std::uint8_t>>(*arena_);
        arena_->at(offset) ^= 0xff;
        verified_ = false;
    }

    /**
     * Test support: the relation table for editing (retarget, drop or
     * add entries). Forgets the verification so the edit is re-read.
     */
    std::vector<Reloc> &
    relocsForTesting()
    {
        verified_ = false;
        return relocs_;
    }

  private:
    /** Panic with "corruption" unless the image encodes graph_. */
    void verify() const;

    /** The checkpointed graph (an alias, never written). */
    ObjectGraph graph_;
    /** Sorted by slot offset. */
    std::vector<Reloc> relocs_;
    /** Sorted distinct arena pages containing patched slots. */
    std::vector<std::uint64_t> pointer_pages_;
    /**
     * The real arena: packed headers, payload fill, zeroed slots.
     * Shared immutably across image copies and never written after
     * build() (outside the corruption test hook).
     */
    std::shared_ptr<std::vector<std::uint8_t>> arena_ =
        std::make_shared<std::vector<std::uint8_t>>();

    /** reconstruct() verifies once; the image never changes after. */
    mutable bool verified_ = false;
};

} // namespace catalyzer::objgraph

#endif // CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H
