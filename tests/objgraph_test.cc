/**
 * @file
 * Unit + property tests for the object graph and its two checkpoint
 * formats. The round-trip properties are the correctness core of
 * separated state recovery.
 */

#include <vector>

#include <gtest/gtest.h>

#include "objgraph/object_graph.h"
#include "objgraph/proto_codec.h"
#include "objgraph/separated_image.h"
#include "sim/rng.h"

namespace catalyzer::objgraph {
namespace {

TEST(ObjectGraphTest, AddAndLookup)
{
    ObjectGraph graph;
    const auto a = graph.addObject(ObjectKind::Task, 64, {});
    const auto b = graph.addObject(ObjectKind::Timer, 32, {a});
    EXPECT_EQ(graph.objectCount(), 2u);
    EXPECT_EQ(graph.object(b).refs.front(), a);
    EXPECT_EQ(graph.pointerCount(), 1u);
    EXPECT_EQ(graph.payloadBytes(), 96u);
    EXPECT_TRUE(graph.checkIntegrity());
}

TEST(ObjectGraphTest, ForwardRefPanics)
{
    ObjectGraph graph;
    EXPECT_DEATH(graph.addObject(ObjectKind::Task, 64, {1}), "ref");
}

TEST(ObjectGraphTest, BadIdPanics)
{
    ObjectGraph graph;
    EXPECT_DEATH(graph.object(1), "bad id");
    EXPECT_DEATH(graph.object(0), "bad id");
}

TEST(ObjectGraphTest, NullRefsAllowed)
{
    ObjectGraph graph;
    graph.addObject(ObjectKind::Misc, 16, {0, 0});
    EXPECT_EQ(graph.pointerCount(), 0u);
    EXPECT_TRUE(graph.checkIntegrity());
}

TEST(GraphSpecTest, ScaledToApproximatesTarget)
{
    for (std::size_t target : {500u, 5000u, 37838u}) {
        const GraphSpec spec = GraphSpec::scaledTo(target);
        const double ratio = static_cast<double>(spec.totalObjects()) /
                             static_cast<double>(target);
        EXPECT_NEAR(ratio, 1.0, 0.05) << "target " << target;
    }
}

TEST(GraphSpecTest, SynthesizeMatchesSpecCounts)
{
    sim::Rng rng(42);
    const GraphSpec spec = GraphSpec::scaledTo(5000);
    const ObjectGraph graph = ObjectGraph::synthesize(rng, spec);
    EXPECT_EQ(graph.objectCount(), spec.totalObjects());
    EXPECT_TRUE(graph.checkIntegrity());
    // Pointer-bearing fraction is respected within tolerance.
    std::size_t bearing = 0;
    for (const auto &obj : graph.objects())
        bearing += obj.refs.empty() ? 0 : 1;
    const double frac = static_cast<double>(bearing) /
                        static_cast<double>(graph.objectCount());
    EXPECT_NEAR(frac, spec.pointerBearingFraction, 0.03);
}

TEST(ProtoImageTest, RoundTripIsIdentity)
{
    sim::Rng rng(7);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(2000));
    const ProtoImage image = ProtoImage::build(graph);
    EXPECT_EQ(image.objectCount(), graph.objectCount());
    EXPECT_LT(image.compressedBytes(), image.uncompressedBytes());
    EXPECT_TRUE(image.reconstruct() == graph);
}

TEST(SeparatedImageTest, RoundTripIsIdentity)
{
    sim::Rng rng(7);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(2000));
    const SeparatedImage image = SeparatedImage::build(graph);
    EXPECT_EQ(image.objectCount(), graph.objectCount());
    EXPECT_TRUE(image.reconstruct() == graph);
}

TEST(SeparatedImageTest, RelocCountMatchesPointerCount)
{
    sim::Rng rng(11);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(3000));
    const SeparatedImage image = SeparatedImage::build(graph);
    EXPECT_EQ(image.relocCount(), graph.pointerCount());
    EXPECT_EQ(image.relocTableBytes(),
              image.relocCount() * SeparatedImage::kRelocEntryBytes);
}

TEST(SeparatedImageTest, ClusteringKeepsPointerPagesCompact)
{
    sim::Rng rng(13);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(20000));
    const SeparatedImage image = SeparatedImage::build(graph);
    // Pointer-bearing objects are clustered at the front: the dirtied
    // pages must be far fewer than the whole arena.
    EXPECT_LT(image.pointerPages(), image.arenaPages() / 3);
    EXPECT_GT(image.pointerPages(), 0u);
    EXPECT_EQ(image.pointerPageList().size(), image.pointerPages());
    // Clustered => the dirty page list is a dense prefix of the arena.
    const auto pages = image.pointerPageList();
    EXPECT_LE(pages.back(), pages.size() + 1);
}

TEST(SeparatedImageTest, ArenaAccountsForEveryObject)
{
    sim::Rng rng(17);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(1000));
    const SeparatedImage image = SeparatedImage::build(graph);
    std::size_t min_bytes = 0;
    for (const auto &obj : graph.objects()) {
        min_bytes += SeparatedImage::kObjectHeaderBytes +
                     obj.payloadBytes +
                     obj.refs.size() * SeparatedImage::kPointerSlotBytes;
    }
    EXPECT_GE(image.arenaBytes(), min_bytes);
    // Alignment overhead is bounded (8 bytes per object).
    EXPECT_LE(image.arenaBytes(), min_bytes + 8 * graph.objectCount());
}

/** Property: both formats are lossless across sizes and seeds. */
class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::size_t>>
{};

TEST_P(CodecRoundTrip, BothFormatsLossless)
{
    const auto [seed, objects] = GetParam();
    sim::Rng rng(seed);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(objects));
    EXPECT_TRUE(ProtoImage::build(graph).reconstruct() == graph);
    EXPECT_TRUE(SeparatedImage::build(graph).reconstruct() == graph);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, CodecRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u),
                       ::testing::Values(50u, 500u, 5000u)));

TEST(SeparatedImageTest, ArenaIsRealBytes)
{
    sim::Rng rng(3);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(300));
    const SeparatedImage image = SeparatedImage::build(graph);
    // The arena is materialized, byte for byte.
    EXPECT_EQ(image.arena().size(), image.arenaBytes());
    // Pointer slots in the stored arena are zeroed (partially
    // deserialized): the bytes at every relocation site must be zero.
    for (const Reloc &reloc : image.relocs()) {
        for (std::size_t i = 0; i < SeparatedImage::kPointerSlotBytes;
             ++i) {
            EXPECT_EQ(image.arena()[reloc.slotOffset + i], 0u);
        }
    }
}

TEST(SeparatedImageTest, ByteCorruptionIsDetected)
{
    sim::Rng rng(5);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(200));
    SeparatedImage image = SeparatedImage::build(graph);
    // Flip a payload byte (headers start each object; payload follows).
    image.corruptByteForTesting(SeparatedImage::kObjectHeaderBytes + 1);
    EXPECT_DEATH(image.reconstruct(), "corruption");
}

/** Flip one byte of the first object's header (the arena starts there). */
void
reconstructWithHeaderFlip(std::uint64_t offset)
{
    sim::Rng rng(5);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(200));
    SeparatedImage image = SeparatedImage::build(graph);
    image.corruptByteForTesting(offset);
    image.reconstruct();
}

TEST(SeparatedImageTest, HeaderCorruptionIsDetected)
{
    // Header layout: id u64 at 0, kind u8 at 8, slots u16 at 9,
    // payload u32 at 12.
    EXPECT_DEATH(reconstructWithHeaderFlip(1), "corruption");
    EXPECT_DEATH(reconstructWithHeaderFlip(8), "corruption");
    EXPECT_DEATH(reconstructWithHeaderFlip(9), "corruption");
    EXPECT_DEATH(reconstructWithHeaderFlip(12), "corruption");
}

/** A 200-object image (seed 5) with @p edit applied to it. */
template <typename Edit>
void
reconstructAfter(Edit edit)
{
    sim::Rng rng(5);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(200));
    SeparatedImage image = SeparatedImage::build(graph);
    ASSERT_GT(image.relocCount(), 2u);
    edit(image);
    image.reconstruct();
}

TEST(SeparatedImageTest, RetargetedRelocationIsDetected)
{
    // Every target offset names a real object, so pointing one entry at
    // the object that starts the arena still decodes to *a* graph: only
    // the check against the checkpoint can tell it is the wrong one.
    const auto retarget = [](SeparatedImage &image) {
        for (Reloc &reloc : image.relocsForTesting()) {
            if (reloc.targetOffset != 0) {
                reloc.targetOffset = 0;
                return;
            }
        }
        FAIL() << "no relocation to retarget";
    };
    EXPECT_DEATH(reconstructAfter(retarget), "corruption");
}

TEST(SeparatedImageTest, MissingRelocationIsDetected)
{
    EXPECT_DEATH(reconstructAfter([](SeparatedImage &image) {
                     auto &relocs = image.relocsForTesting();
                     relocs.erase(relocs.begin() + 1);
                 }),
                 "corruption");
    EXPECT_DEATH(reconstructAfter([](SeparatedImage &image) {
                     image.relocsForTesting().pop_back();
                 }),
                 "corruption");
}

TEST(SeparatedImageTest, ExtraRelocationIsDetected)
{
    // A duplicate inside the table, and an entry past its end.
    EXPECT_DEATH(reconstructAfter([](SeparatedImage &image) {
                     auto &relocs = image.relocsForTesting();
                     const Reloc dup = relocs[1];
                     relocs.insert(relocs.begin() + 1, dup);
                 }),
                 "corruption");
    EXPECT_DEATH(reconstructAfter([](SeparatedImage &image) {
                     auto &relocs = image.relocsForTesting();
                     const Reloc last = relocs.back();
                     relocs.push_back({last.slotOffset + 1,
                                       last.targetOffset});
                 }),
                 "corruption");
}

TEST(SeparatedImageTest, NonZeroUnpatchedSlotIsDetected)
{
    EXPECT_DEATH(reconstructAfter([](SeparatedImage &image) {
                     image.corruptByteForTesting(
                         image.relocs().front().slotOffset + 3);
                 }),
                 "corruption");
}

TEST(SeparatedImageTest, DuplicatedHeaderIdIsDetected)
{
    // 300 pointer-free 16-byte objects: the arena is in id order, 32
    // bytes per object. Flipping the low byte of object 1's id turns it
    // into 0xfe, the id object 254 carries in its own header.
    ObjectGraph graph;
    for (int i = 0; i < 300; ++i)
        graph.addObject(ObjectKind::Misc, 16, {});
    SeparatedImage image = SeparatedImage::build(graph);
    ASSERT_EQ(image.arena()[253 * 32], 0xfe);
    image.corruptByteForTesting(0);
    EXPECT_DEATH(image.reconstruct(), "corruption");
}

TEST(SeparatedImageTest, ReconstructAliasesTheCheckpointedGraph)
{
    sim::Rng rng(9);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(500));
    const SeparatedImage image = SeparatedImage::build(graph);
    const ObjectGraph first = image.reconstruct();
    EXPECT_TRUE(first.sharesStorageWith(graph));
    EXPECT_TRUE(image.reconstruct().sharesStorageWith(first));
    // Copy-on-write: editing a handed-out graph leaves the image alone.
    ObjectGraph edited = image.reconstruct();
    edited.mutableObject(1).payloadBytes += 8;
    EXPECT_FALSE(edited.sharesStorageWith(graph));
    EXPECT_TRUE(image.reconstruct() == graph);
    EXPECT_FALSE(ObjectGraph().sharesStorageWith(ObjectGraph()));
}

/** FNV-1a over @p n bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return fnv1a(h, le, sizeof le);
}

/** Hash of everything build() lays out: arena, relocs and page sets. */
std::uint64_t
layoutDigest(const SeparatedImage &image)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, image.arena().data(), image.arena().size());
    for (const Reloc &reloc : image.relocs()) {
        h = fnv1aU64(h, reloc.slotOffset);
        h = fnv1aU64(h, reloc.targetOffset);
    }
    for (std::uint64_t page : image.pointerPageList())
        h = fnv1aU64(h, page);
    h = fnv1aU64(h, image.arenaPages());
    return fnv1aU64(h, image.relocTableBytes());
}

/**
 * Golden layouts: the digests were recorded from the original
 * map-and-sort implementation of build(), so any change to the arena
 * bytes, the relation table or the dirtied page set shows up here.
 */
TEST(SeparatedImageTest, LayoutMatchesGolden)
{
    struct Golden
    {
        std::uint64_t seed;
        GraphSpec spec;
        std::uint64_t digest;
    };
    const Golden cases[] = {
        {1, GraphSpec{}, 0x049b6d8ba67544d1ull},
        {7, GraphSpec::scaledTo(2000), 0x0eb7d757254c51b2ull},
        {42, GraphSpec::scaledTo(50), 0xb58421ca7c063165ull},
        {2001, GraphSpec::scaledTo(37838), 0xed9fa2231d3253eaull},
    };
    for (const Golden &c : cases) {
        sim::Rng rng(c.seed);
        const ObjectGraph graph = ObjectGraph::synthesize(rng, c.spec);
        const SeparatedImage image = SeparatedImage::build(graph);
        EXPECT_EQ(layoutDigest(image), c.digest)
            << "seed " << c.seed << ", " << graph.objectCount()
            << " objects";
        EXPECT_TRUE(image.reconstruct() == graph);
    }
}

TEST(ObjectKindTest, NamesAreStable)
{
    EXPECT_STREQ(objectKindName(ObjectKind::Task), "task");
    EXPECT_STREQ(objectKindName(ObjectKind::SessionList), "session_list");
}

} // namespace
} // namespace catalyzer::objgraph
