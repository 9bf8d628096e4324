#include "objgraph/separated_image.h"

#include <algorithm>
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

void
writeU64(std::vector<std::uint8_t> &buf, std::uint64_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[off + static_cast<std::uint64_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
readU64(const std::vector<std::uint8_t> &buf, std::uint64_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[off +
                                            static_cast<std::uint64_t>(i)])
             << (8 * i);
    return v;
}

void
writeU32(std::vector<std::uint8_t> &buf, std::uint64_t off,
         std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[off + static_cast<std::uint64_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
readU32(const std::vector<std::uint8_t> &buf, std::uint64_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf[off +
                                            static_cast<std::uint64_t>(i)])
             << (8 * i);
    return v;
}

/**
 * Deterministic payload fill so decode can verify integrity: byte i of
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

} // namespace

SeparatedImage
SeparatedImage::build(const ObjectGraph &graph)
{
    SeparatedImage image;
    const auto &objects = graph.objects();
    const std::size_t n = objects.size();

    // Cluster pointer-bearing objects at the front of the arena so that
    // stage-2 patching dirties a compact page range. Both groups keep
    // id order. Objects are stored densely: objects[k] has id k + 1.
    std::vector<std::size_t> order;
    std::vector<std::size_t> plain;
    order.reserve(n);
    std::size_t reloc_count = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const auto &refs = objects[k].refs;
        const auto non_null = static_cast<std::size_t>(std::count_if(
            refs.begin(), refs.end(),
            [](std::uint64_t r) { return r != 0; }));
        reloc_count += non_null;
        if (non_null > 0)
            order.push_back(k);
        else
            plain.push_back(k);
    }
    order.insert(order.end(), plain.begin(), plain.end());

    // Assign arena offsets in clustered order. Offsets are handed out
    // by an ascending cursor, so offset_to_id_ comes out sorted.
    std::vector<std::uint64_t> offset_of(n);
    image.offset_to_id_.reserve(n);
    std::uint64_t cursor = 0;
    for (std::size_t k : order) {
        const MetaObject &obj = objects[k];
        offset_of[k] = cursor;
        image.offset_to_id_.emplace_back(cursor, obj.id);
        cursor += slotBytesFor(obj.payloadBytes, obj.refs.size());
    }
    image.arena_bytes_ = cursor;

    //
    // Materialize the arena: packed 16-byte headers (id u64, kind u8,
    // slots u16, payload u32), a deterministic payload fill, and zeroed
    // pointer slots. The relation table records where every non-null
    // pointer lives and what arena offset it must resolve to.
    //
    std::vector<std::uint8_t> &arena = *image.arena_;
    arena.assign(image.arena_bytes_, 0);
    image.stored_.reserve(n);
    image.relocs_.reserve(reloc_count);
    for (std::size_t k = 0; k < n; ++k) {
        const MetaObject &obj = objects[k];
        const std::uint64_t base = offset_of[k];
        writeU64(arena, base, obj.id);
        arena[base + 8] = static_cast<std::uint8_t>(obj.kind);
        arena[base + 9] =
            static_cast<std::uint8_t>(obj.refs.size() & 0xff);
        arena[base + 10] =
            static_cast<std::uint8_t>((obj.refs.size() >> 8) & 0xff);
        writeU32(arena, base + 12, obj.payloadBytes);
        std::uint8_t *payload = arena.data() + base + kObjectHeaderBytes;
        for (std::uint32_t i = 0; i < obj.payloadBytes; i += kRampPeriod)
            std::memcpy(payload + i, kRamp.window(obj.id, i),
                        std::min<std::size_t>(kRampPeriod,
                                              obj.payloadBytes - i));

        image.stored_.push_back(StoredObject{
            obj.id, obj.kind, obj.payloadBytes, base,
            static_cast<std::uint16_t>(obj.refs.size())});
        for (std::size_t slot = 0; slot < obj.refs.size(); ++slot) {
            const std::uint64_t target = obj.refs[slot];
            if (target == 0)
                continue; // null stays null; no relocation needed
            if (target > n)
                sim::panic("SeparatedImage::build: dangling ref %llu",
                           static_cast<unsigned long long>(target));
            image.relocs_.push_back(Reloc{
                slotOffsetFor(base, obj.payloadBytes, slot),
                offset_of[target - 1]});
        }
    }

    // The stage-2 patch overlay: the same relocations, ordered by slot
    // offset so a decode can merge-walk it alongside the arena scan
    // instead of writing into a private arena copy.
    image.overlay_ = image.relocs_;
    std::sort(image.overlay_.begin(), image.overlay_.end(),
              [](const Reloc &a, const Reloc &b) {
                  return a.slotOffset < b.slotOffset;
              });
    for (const Reloc &reloc : image.overlay_) {
        const std::uint64_t page = reloc.slotOffset / mem::kPageSize;
        if (image.pointer_pages_.empty() ||
            image.pointer_pages_.back() != page)
            image.pointer_pages_.push_back(page);
    }
    return image;
}

ObjectGraph
SeparatedImage::reconstruct(trace::TraceContext trace) const
{
    const std::vector<std::uint8_t> &arena = *arena_;

    //
    // Stage-1: the arena is mapped as-is. It is immutable and shared by
    // every instance; nothing is copied here.
    //
    {
        trace::ScopedSpan span(trace, "arena-map");
        span.attr("arena_bytes",
                  static_cast<std::int64_t>(arena_bytes_));
    }

    //
    // Stage-2: apply the relation table — each entry resolves a pointer
    // slot to its target's arena offset. Entries are independent; the
    // real system patches them from parallel workers, COWing only the
    // pages that hold slots. Here the patches stay in the overlay_
    // table (sorted by slot offset) and the decode below reads slot
    // values through it, so no per-instance arena copy exists at all.
    //
    // Targets resolve to offset+1 so that a pointer to the object at
    // arena offset 0 stays distinguishable from a null slot.
    {
        trace::ScopedSpan span(trace, "relation-fixup");
        span.attr("relocs", static_cast<std::int64_t>(relocs_.size()));
        span.attr("pointer_pages",
                  static_cast<std::int64_t>(pointerPages()));
    }

    trace::ScopedSpan decode_span(trace, "arena-decode");
    decode_span.attr("objects", static_cast<std::int64_t>(stored_.size()));

    // The decode is a pure function of the immutable arena and relation
    // table, so its result is computed and verified once; every later
    // boot receives a copy-on-write alias of the same graph.
    if (decoded_valid_)
        return decoded_;

    for (const Reloc &reloc : relocs_) {
        if (reloc.slotOffset + kPointerSlotBytes > arena.size())
            sim::panic("SeparatedImage: slot offset beyond arena");
    }

    //
    // One scan over the packed objects, decoding each straight into its
    // id-indexed slot. Every header is checked against the checkpoint's
    // object table before its extent is trusted. Slots are visited in
    // ascending arena offset, so the patched value of each one comes
    // from a merge cursor over overlay_ (or, with no entry there, from
    // the pristine zeroed arena bytes).
    //
    // A zero slot is a null pointer — except for the object at arena
    // offset 0, which never appears as a target because an object
    // cannot reference itself or a later object (construction order),
    // and offset 0 belongs to the first clustered object whose own
    // refs resolve elsewhere.
    //
    std::vector<MetaObject> objects(stored_.size());
    std::size_t found = 0;
    std::size_t next_patch = 0;
    std::uint64_t cursor = 0;
    while (cursor < arena.size()) {
        if (cursor + kObjectHeaderBytes > arena.size())
            sim::panic("SeparatedImage: arena scan overran (%llu != %zu)",
                       static_cast<unsigned long long>(cursor),
                       arena.size());
        const std::uint64_t id = readU64(arena, cursor);
        if (id == 0 || id > stored_.size())
            sim::panic("SeparatedImage: header corruption at offset "
                       "%llu: id %llu out of range",
                       static_cast<unsigned long long>(cursor),
                       static_cast<unsigned long long>(id));
        MetaObject &obj = objects[id - 1];
        if (obj.id != 0)
            sim::panic("SeparatedImage: header corruption at offset "
                       "%llu: duplicate id %llu",
                       static_cast<unsigned long long>(cursor),
                       static_cast<unsigned long long>(id));
        const StoredObject &want = stored_[id - 1];
        const auto kind = static_cast<ObjectKind>(arena[cursor + 8]);
        const std::uint16_t slots = static_cast<std::uint16_t>(
            arena[cursor + 9] |
            (static_cast<std::uint16_t>(arena[cursor + 10]) << 8));
        const std::uint32_t payload = readU32(arena, cursor + 12);
        if (kind != want.kind || slots != want.slots ||
            payload != want.payloadBytes)
            sim::panic("SeparatedImage: header corruption at object "
                       "%llu (kind %u/%u, slots %u/%u, payload %u/%u)",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned>(kind),
                       static_cast<unsigned>(want.kind),
                       static_cast<unsigned>(slots),
                       static_cast<unsigned>(want.slots), payload,
                       want.payloadBytes);
        const std::uint64_t slot_base =
            cursor + kObjectHeaderBytes + align8(payload);
        const std::uint64_t end = slot_base + slots * kPointerSlotBytes;
        if (end > arena.size())
            sim::panic("SeparatedImage: arena scan overran (%llu != %zu)",
                       static_cast<unsigned long long>(end),
                       arena.size());

        // Integrity: the payload fill must match the checkpoint.
        const std::uint8_t *bytes =
            arena.data() + cursor + kObjectHeaderBytes;
        for (std::uint32_t i = 0; i < payload; i += kRampPeriod) {
            const std::size_t len =
                std::min<std::size_t>(kRampPeriod, payload - i);
            const std::uint8_t *want_fill = kRamp.window(id, i);
            if (std::memcmp(bytes + i, want_fill, len) == 0)
                continue;
            std::uint32_t bad = i;
            while (bytes[bad] == want_fill[bad - i])
                ++bad;
            sim::panic("SeparatedImage: payload corruption at "
                       "object %llu byte %u",
                       static_cast<unsigned long long>(id), bad);
        }

        obj.id = id;
        obj.kind = kind;
        obj.payloadBytes = payload;
        obj.refs.resize(slots);
        for (std::uint16_t s = 0; s < slots; ++s) {
            const std::uint64_t off = slot_base + s * kPointerSlotBytes;
            while (next_patch < overlay_.size() &&
                   overlay_[next_patch].slotOffset < off)
                ++next_patch;
            std::uint64_t raw;
            if (next_patch < overlay_.size() &&
                overlay_[next_patch].slotOffset == off)
                raw = overlay_[next_patch++].targetOffset + 1;
            else
                raw = readU64(arena, off);
            if (raw == 0)
                continue; // null slot; refs[s] is already 0
            const std::uint64_t target = raw - 1;
            auto it = std::lower_bound(
                offset_to_id_.begin(), offset_to_id_.end(), target,
                [](const std::pair<std::uint64_t, std::uint64_t> &p,
                   std::uint64_t o) { return p.first < o; });
            if (it == offset_to_id_.end() || it->first != target)
                sim::panic("SeparatedImage: dangling target offset");
            obj.refs[s] = it->second;
        }
        ++found;
        cursor = end;
    }
    if (found != objects.size())
        sim::panic("SeparatedImage: header corruption: arena holds %zu "
                   "of %zu objects",
                   found, objects.size());

    decoded_ = ObjectGraph::fromObjects(std::move(objects));
    decoded_valid_ = true;
    return decoded_;
}

std::size_t
SeparatedImage::arenaPages() const
{
    return mem::pagesForBytes(arena_bytes_);
}

std::vector<std::uint64_t>
SeparatedImage::pointerPageList() const
{
    return pointer_pages_;
}

} // namespace catalyzer::objgraph
