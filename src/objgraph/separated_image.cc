#include "objgraph/separated_image.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "mem/types.h"
#include "sim/logging.h"

namespace catalyzer::objgraph {

namespace {

constexpr std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

/** Arena bytes occupied by one object. */
std::uint64_t
slotBytesFor(std::uint32_t payload, std::size_t slots)
{
    return SeparatedImage::kObjectHeaderBytes + align8(payload) +
           slots * SeparatedImage::kPointerSlotBytes;
}

/** Byte offset of pointer slot @p slot within an object at @p base. */
std::uint64_t
slotOffsetFor(std::uint64_t base, std::uint32_t payload, std::size_t slot)
{
    return base + SeparatedImage::kObjectHeaderBytes + align8(payload) +
           slot * SeparatedImage::kPointerSlotBytes;
}

/**
 * The packed 16-byte object header: id u64, kind u8, slots u16, one
 * zero byte, payload u32 (all little-endian).
 */
using Header = std::array<std::uint8_t, SeparatedImage::kObjectHeaderBytes>;

Header
encodeHeader(const MetaObject &obj)
{
    Header h{};
    for (int i = 0; i < 8; ++i)
        h[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(obj.id >> (8 * i));
    h[8] = static_cast<std::uint8_t>(obj.kind);
    h[9] = static_cast<std::uint8_t>(obj.refs.size() & 0xff);
    h[10] = static_cast<std::uint8_t>((obj.refs.size() >> 8) & 0xff);
    for (int i = 0; i < 4; ++i)
        h[static_cast<std::size_t>(12 + i)] =
            static_cast<std::uint8_t>(obj.payloadBytes >> (8 * i));
    return h;
}

/**
 * Deterministic payload fill so verify() can check integrity: byte i of
 * object id's payload is (id * 31 + i) mod 256, so any 256-byte run of
 * it is a window of this two-period ramp.
 */
constexpr std::size_t kRampPeriod = 256;

struct PayloadRamp
{
    std::uint8_t bytes[2 * kRampPeriod];

    constexpr PayloadRamp() : bytes()
    {
        for (std::size_t i = 0; i < 2 * kRampPeriod; ++i)
            bytes[i] = static_cast<std::uint8_t>(i & 0xff);
    }

    /** The fill of payload bytes [i, i + n) of @p id; n <= 256. */
    const std::uint8_t *
    window(std::uint64_t id, std::uint64_t i) const
    {
        return bytes + ((id * 31 + i) & 0xff);
    }
};

constexpr PayloadRamp kRamp;

/**
 * Where build() puts each object. Pointer-bearing objects are clustered
 * at the front of the arena so that stage-2 patching dirties a compact
 * page range; both groups keep id order and are packed back to back.
 * Objects are stored densely: objects[k] has id k + 1.
 */
struct Layout
{
    /** Object indices in arena order. */
    std::vector<std::size_t> order;
    /** Arena offset of each object, by object index. */
    std::vector<std::uint64_t> offsetOf;
    std::uint64_t bytes = 0;
    /** Non-null refs: the relation table's length. */
    std::size_t relocs = 0;
};

Layout
layoutOf(const std::vector<MetaObject> &objects)
{
    const std::size_t n = objects.size();
    Layout layout;
    layout.order.reserve(n);
    layout.offsetOf.resize(n);
    std::vector<std::size_t> plain;
    for (std::size_t k = 0; k < n; ++k) {
        const auto &refs = objects[k].refs;
        const auto non_null = static_cast<std::size_t>(std::count_if(
            refs.begin(), refs.end(),
            [](std::uint64_t r) { return r != 0; }));
        layout.relocs += non_null;
        if (non_null > 0)
            layout.order.push_back(k);
        else
            plain.push_back(k);
    }
    layout.order.insert(layout.order.end(), plain.begin(), plain.end());
    for (std::size_t k : layout.order) {
        layout.offsetOf[k] = layout.bytes;
        layout.bytes +=
            slotBytesFor(objects[k].payloadBytes, objects[k].refs.size());
    }
    return layout;
}

} // namespace

SeparatedImage
SeparatedImage::build(const ObjectGraph &graph)
{
    SeparatedImage image;
    image.graph_ = graph;
    const auto &objects = graph.objects();
    const Layout layout = layoutOf(objects);

    //
    // Materialize the arena in layout order: packed headers, a
    // deterministic payload fill, and zeroed pointer slots. The
    // relation table records where every non-null pointer lives and
    // what arena offset it must resolve to; all relocations belong to
    // the front cluster, so they come out in slot order.
    //
    std::vector<std::uint8_t> &arena = *image.arena_;
    arena.assign(layout.bytes, 0);
    image.relocs_.reserve(layout.relocs);
    for (std::size_t k : layout.order) {
        const MetaObject &obj = objects[k];
        const std::uint64_t base = layout.offsetOf[k];
        const Header header = encodeHeader(obj);
        std::memcpy(arena.data() + base, header.data(), header.size());
        std::uint8_t *payload = arena.data() + base + kObjectHeaderBytes;
        for (std::uint32_t i = 0; i < obj.payloadBytes; i += kRampPeriod)
            std::memcpy(payload + i, kRamp.window(obj.id, i),
                        std::min<std::size_t>(kRampPeriod,
                                              obj.payloadBytes - i));

        for (std::size_t slot = 0; slot < obj.refs.size(); ++slot) {
            const std::uint64_t target = obj.refs[slot];
            if (target == 0)
                continue; // null stays null; no relocation needed
            if (target > objects.size())
                sim::panic("SeparatedImage::build: dangling ref %llu",
                           static_cast<unsigned long long>(target));
            image.relocs_.push_back(Reloc{
                slotOffsetFor(base, obj.payloadBytes, slot),
                layout.offsetOf[target - 1]});
        }
    }

    for (const Reloc &reloc : image.relocs_) {
        const std::uint64_t page = reloc.slotOffset / mem::kPageSize;
        if (image.pointer_pages_.empty() ||
            image.pointer_pages_.back() != page)
            image.pointer_pages_.push_back(page);
    }
    return image;
}

void
SeparatedImage::verify() const
{
    const std::vector<std::uint8_t> &arena = *arena_;
    const auto &objects = graph_.objects();
    const Layout layout = layoutOf(objects);
    if (arena.size() != layout.bytes)
        sim::panic("SeparatedImage: arena corruption: %zu bytes, the "
                   "checkpoint lays out %llu",
                   arena.size(),
                   static_cast<unsigned long long>(layout.bytes));

    //
    // One walk over the arena in layout order. Each object's bytes must
    // be exactly what build() writes for the checkpointed object, and
    // its non-null refs must match the relation table entry by entry:
    // the table is in slot order, so a cursor over it advances in step
    // with the walk, and an entry missing, added, duplicated or out of
    // order shows up as a slot-offset mismatch.
    //
    std::size_t next_reloc = 0;
    for (std::size_t k : layout.order) {
        const MetaObject &obj = objects[k];
        const std::uint64_t base = layout.offsetOf[k];
        const std::uint8_t *bytes = arena.data() + base;
        const Header header = encodeHeader(obj);
        if (std::memcmp(bytes, header.data(), header.size()) != 0)
            sim::panic("SeparatedImage: header corruption at offset "
                       "%llu (object %llu)",
                       static_cast<unsigned long long>(base),
                       static_cast<unsigned long long>(obj.id));

        const std::uint8_t *payload = bytes + kObjectHeaderBytes;
        for (std::uint32_t i = 0; i < obj.payloadBytes; i += kRampPeriod) {
            const std::size_t len =
                std::min<std::size_t>(kRampPeriod, obj.payloadBytes - i);
            const std::uint8_t *want_fill = kRamp.window(obj.id, i);
            if (std::memcmp(payload + i, want_fill, len) == 0)
                continue;
            std::uint32_t bad = i;
            while (payload[bad] == want_fill[bad - i])
                ++bad;
            sim::panic("SeparatedImage: payload corruption at "
                       "object %llu byte %u",
                       static_cast<unsigned long long>(obj.id), bad);
        }

        // Alignment padding and pointer slots are stored zeroed.
        const std::uint64_t end =
            base + slotBytesFor(obj.payloadBytes, obj.refs.size());
        for (std::uint64_t off = base + kObjectHeaderBytes +
                                 obj.payloadBytes;
             off < end; ++off) {
            if (arena[off] != 0)
                sim::panic("SeparatedImage: slot corruption at offset "
                           "%llu (object %llu): non-zero unpatched byte",
                           static_cast<unsigned long long>(off),
                           static_cast<unsigned long long>(obj.id));
        }

        for (std::size_t slot = 0; slot < obj.refs.size(); ++slot) {
            const std::uint64_t target = obj.refs[slot];
            if (target == 0)
                continue;
            const std::uint64_t want_slot =
                slotOffsetFor(base, obj.payloadBytes, slot);
            if (next_reloc == relocs_.size() ||
                relocs_[next_reloc].slotOffset != want_slot)
                sim::panic("SeparatedImage: relocation corruption: "
                           "entry %zu does not patch slot offset %llu "
                           "(object %llu slot %zu)",
                           next_reloc,
                           static_cast<unsigned long long>(want_slot),
                           static_cast<unsigned long long>(obj.id), slot);
            const std::uint64_t want_target = layout.offsetOf[target - 1];
            if (relocs_[next_reloc].targetOffset != want_target)
                sim::panic("SeparatedImage: relocation corruption at "
                           "slot offset %llu: target offset %llu, the "
                           "checkpoint references object %llu at %llu",
                           static_cast<unsigned long long>(want_slot),
                           static_cast<unsigned long long>(
                               relocs_[next_reloc].targetOffset),
                           static_cast<unsigned long long>(target),
                           static_cast<unsigned long long>(want_target));
            ++next_reloc;
        }
    }
    if (next_reloc != relocs_.size())
        sim::panic("SeparatedImage: relocation corruption: %zu entries "
                   "for %zu checkpointed pointers",
                   relocs_.size(), next_reloc);
}

ObjectGraph
SeparatedImage::reconstruct(trace::TraceContext trace) const
{
    //
    // Stage-1: the arena is mapped as-is. It is immutable and shared by
    // every instance; nothing is copied here.
    //
    {
        trace::ScopedSpan span(trace, "arena-map");
        span.attr("arena_bytes",
                  static_cast<std::int64_t>(arenaBytes()));
    }

    //
    // Stage-2: apply the relation table — each entry resolves a pointer
    // slot to its target's arena offset. Entries are independent; the
    // real system patches them from parallel workers, COWing only the
    // pages that hold slots (pointerPageList(), which the caller
    // touches). The patched result is the checkpointed graph itself.
    //
    {
        trace::ScopedSpan span(trace, "relation-fixup");
        span.attr("relocs", static_cast<std::int64_t>(relocs_.size()));
        span.attr("pointer_pages",
                  static_cast<std::int64_t>(pointerPages()));
    }

    trace::ScopedSpan decode_span(trace, "arena-decode");
    decode_span.attr("objects", static_cast<std::int64_t>(objectCount()));

    // The image never changes after build(), so it is verified against
    // the checkpoint once; every boot receives a copy-on-write alias of
    // the checkpointed graph.
    if (!verified_) {
        verify();
        verified_ = true;
    }
    return graph_;
}

std::size_t
SeparatedImage::arenaPages() const
{
    return mem::pagesForBytes(arenaBytes());
}

} // namespace catalyzer::objgraph
