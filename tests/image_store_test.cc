/**
 * @file
 * Tests for func-image storage: remote fetch, local caching, integrity
 * verification and the corrupted-image fallback path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "catalyzer/runtime.h"
#include "net/fabric.h"
#include "remote/template_registry.h"
#include "sandbox/pipelines.h"
#include "snapshot/image_store.h"

namespace catalyzer::snapshot {
namespace {

using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;

std::shared_ptr<FuncImage>
buildImage(FunctionRegistry &registry, const char *app)
{
    return sandbox::ensureSeparatedImage(
        registry.artifactsFor(apps::appByName(app)));
}

TEST(ImageStoreTest, FetchUnknownReturnsNull)
{
    Machine machine(1);
    ImageStore store(machine.ctx());
    EXPECT_EQ(store.fetch("nope", ImageFormat::SeparatedWellFormed),
              nullptr);
}

TEST(ImageStoreTest, PublishThenLocalFetchIsFree)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    store.publish(buildImage(registry, "c-hello"));

    const auto before = machine.ctx().now();
    auto image = store.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(machine.ctx().now(), before); // local hit: no charge
    EXPECT_EQ(machine.ctx().stats().value("snapshot.image_local_hits"),
              1);
}

TEST(ImageStoreTest, RemoteFetchPaysNetworkOnce)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    auto image = buildImage(registry, "python-hello");
    store.publish(image);
    store.evictLocal("python-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_FALSE(store.cachedLocally("python-hello",
                                     ImageFormat::SeparatedWellFormed));

    const auto before = machine.ctx().now();
    auto fetched =
        store.fetch("python-hello", ImageFormat::SeparatedWellFormed);
    ASSERT_EQ(fetched.get(), image.get());
    const double fetch_ms = (machine.ctx().now() - before).toMs();
    // ~20 MB image over the network: tens of ms.
    EXPECT_GT(fetch_ms, 5.0);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);

    // Second fetch is local.
    const auto mid = machine.ctx().now();
    store.fetch("python-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(machine.ctx().now(), mid);
}

TEST(ImageStoreTest, FlatCompatFabricFetchIsBitIdentical)
{
    // Satellite regression for the fabric refactor: routing fetch()
    // through a flat-compat net::Fabric must leave the default fetch
    // latency and counters exactly as the legacy flat charge, whether
    // the store owns the fabric (standalone machine) or a Cluster
    // attached one.
    auto run = [](bool attach) {
        Machine machine(7);
        FunctionRegistry registry(machine);
        ImageStore store(machine.ctx());
        net::Fabric fabric; // default: modelTransfers off
        if (attach)
            store.attachFabric(&fabric, 0);
        store.publish(buildImage(registry, "python-django"));
        store.evictLocal("python-django",
                         ImageFormat::SeparatedWellFormed);
        const auto before = machine.ctx().now();
        store.fetch("python-django", ImageFormat::SeparatedWellFormed);
        return machine.ctx().now() - before;
    };
    const sim::SimTime attached = run(true);
    const sim::SimTime unattached = run(false);
    EXPECT_EQ(attached, unattached);

    // And both equal the legacy formula: flat per-MiB charge plus the
    // manifest parse.
    Machine machine(7);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "python-django");
    const auto mib = static_cast<std::int64_t>(
        mem::bytesForPages(image->totalPages()) >> 20);
    const sim::SimTime legacy =
        machine.ctx().costs().networkFetchPerMiB *
            std::max<std::int64_t>(mib, 1) +
        machine.ctx().costs().imageManifestParse;
    EXPECT_EQ(attached, legacy);
}

TEST(ImageStoreTest, P2PFetchStreamsFromNearestReplica)
{
    // Two machines on a modeled fabric: machine 1 fetches from origin
    // (registering itself as a replica), machine 0 then fetches from
    // machine 1 instead of origin — faster, because peers stream at
    // full NIC bandwidth while origin is the shared blob store.
    net::FabricConfig config;
    config.modelTransfers = true;
    config.p2pImages = true;
    net::Fabric fabric(config);
    remote::TemplateRegistry registry(&fabric);

    Machine m0(7), m1(8);
    FunctionRegistry f0(m0), f1(m1);
    ImageStore s0(m0.ctx()), s1(m1.ctx());
    s0.attachFabric(&fabric, 0, &registry);
    s1.attachFabric(&fabric, 1, &registry);

    // Images are built per machine (BackingFiles are machine-local)
    // and published under the same key.
    s0.publish(buildImage(f0, "python-django"));
    s0.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    s1.publish(buildImage(f1, "python-django"));
    s1.evictLocal("python-django", ImageFormat::SeparatedWellFormed);

    const auto t1 = m1.ctx().now();
    s1.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const sim::SimTime origin_fetch = m1.ctx().now() - t1;
    EXPECT_EQ(m1.ctx().stats().value("snapshot.p2p_fetches"), 0);

    const auto t0 = m0.ctx().now();
    s0.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const sim::SimTime p2p_fetch = m0.ctx().now() - t0;
    EXPECT_EQ(m0.ctx().stats().value("snapshot.p2p_fetches"), 1);
    EXPECT_LT(p2p_fetch, origin_fetch);
    EXPECT_GT(m0.ctx().stats().value("net.transfers"), 0);
}

TEST(ImageStoreTest, VerifyDetectsCorruption)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "c-hello");
    EXPECT_TRUE(verifyImage(machine.ctx(), *image));
    image->markCorrupted();
    EXPECT_FALSE(verifyImage(machine.ctx(), *image));
    EXPECT_GT(machine.ctx().stats().value(
                  "snapshot.pages_checksummed"), 0);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.corrupt_images_detected"), 1);
}

TEST(ImageStoreTest, RuntimeRemoteImagesChargeFirstColdBoot)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));

    runtime.bootCold(fn);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);
    runtime.bootCold(fn);
    // Still one: the image is now local.
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);
}

TEST(ImageStoreTest, RuntimeRebuildsCorruptImage)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    // Healthy boot first; then rot the image on storage.
    auto first = runtime.bootCold(fn);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.image_rebuilds"), 0);
    fn.separatedImage->markCorrupted();

    auto second = runtime.bootCold(fn);
    ASSERT_NE(second.instance, nullptr);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.image_rebuilds"), 1);
    EXPECT_FALSE(fn.separatedImage->corrupted());
    // The restored guest still has valid state.
    EXPECT_TRUE(second.instance->guest().state().checkIntegrity());
    // Local build: no remote round-trip to pay after the rebuild.
    EXPECT_EQ(machine.ctx().stats().value(
                  "catalyzer.image_refetch_after_rebuild"), 0);
}

TEST(ImageStoreTest, RebuildUnderRemoteImagesPaysRefetch)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &stats = machine.ctx().stats();
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    runtime.bootCold(fn);
    EXPECT_EQ(stats.value("snapshot.image_remote_fetches"), 1);
    fn.separatedImage->markCorrupted();

    // The rebuild path must be symmetric with the initial publish: the
    // clean image goes to remote storage, the local copy is evicted,
    // and this boot pays the re-fetch.
    auto second = runtime.bootCold(fn);
    ASSERT_NE(second.instance, nullptr);
    EXPECT_EQ(stats.value("catalyzer.image_rebuilds"), 1);
    EXPECT_EQ(stats.value("catalyzer.image_refetch_after_rebuild"), 1);
    EXPECT_EQ(stats.value("snapshot.image_remote_fetches"), 2);
    EXPECT_FALSE(fn.separatedImage->corrupted());
    EXPECT_TRUE(second.instance->guest().state().checkIntegrity());
}

TEST(ImageStoreTest, ChunkedEvictThenRefetchRepaysAssemblyNotNetwork)
{
    // Evicting the assembled image drops the local copy, not the chunk
    // tiers: the refetch is a real fetch again (charged, counted) but
    // every chunk comes out of RAM, so no new bytes cross the network.
    Machine machine(11);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    store.publish(buildImage(registry, "python-django"));
    store.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    ChunkStoreConfig config;
    config.enabled = true;
    // Hold the whole ~81 MiB image in the RAM tier so the refetch hits
    // memory, not the SSD spillover.
    config.ramBudgetBytes = 256u << 20;
    store.configureChunks(config);
    auto &stats = machine.ctx().stats();

    store.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const auto transferred =
        stats.value("image.chunks.bytes_transferred");
    EXPECT_GT(transferred, 0);

    store.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(stats.value("image.evictions"), 2);
    const auto before = machine.ctx().now();
    store.fetch("python-django", ImageFormat::SeparatedWellFormed);
    EXPECT_GT(machine.ctx().now(), before); // re-paid, not a free hit
    EXPECT_EQ(stats.value("image.fetch.remote"), 2);
    EXPECT_EQ(stats.value("image.chunks.bytes_transferred"),
              transferred); // ...but nothing new crossed the network
    EXPECT_GT(stats.value("image.chunks.ram_hits"), 0);
}

TEST(ImageStoreTest, RepublishInvalidatesStaleCopiesOnOtherMachines)
{
    // Machine 0 rebuilds and republishes a function; machine 1's cached
    // copy of the old build must turn stale and refetch instead of
    // serving the outdated image.
    net::Fabric fabric;
    remote::TemplateRegistry directory(&fabric);
    Machine m0(7), m1(8);
    FunctionRegistry f0(m0), f1(m1);
    ImageStore s0(m0.ctx()), s1(m1.ctx());
    s0.attachFabric(&fabric, 0, &directory);
    s1.attachFabric(&fabric, 1, &directory);

    s0.publish(buildImage(f0, "c-hello"));
    s1.publish(buildImage(f1, "c-hello"));
    s1.evictLocal("c-hello", ImageFormat::SeparatedWellFormed);
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("snapshot.image_remote_fetches"),
              1);

    // Same-generation publishes from different machines (each machine
    // announcing its own build) must NOT invalidate anything.
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("image.fetch.stale_drops"), 0);

    // Rebuild on machine 0: a new generation under the same key.
    auto &artifacts = f0.artifactsFor(apps::appByName("c-hello"));
    const auto old_generation = artifacts.separatedImage->generation();
    artifacts.separatedImage.reset();
    auto rebuilt = buildImage(f0, "c-hello");
    ASSERT_NE(rebuilt->generation(), old_generation);
    s0.publish(rebuilt);

    // Machine 1's cached copy is now stale: the next fetch drops it
    // and pays the transfer again.
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("image.fetch.stale_drops"), 1);
    EXPECT_EQ(m1.ctx().stats().value("snapshot.image_remote_fetches"),
              2);
}

TEST(ImageStoreTest, CorruptManifestDropsBeforeRepublish)
{
    // A corrupted working-set manifest must be dropped on the failed
    // read (so the next trace records fresh) and a republish must fully
    // restore fetchability — the drop/republish order cannot leave a
    // stale blob behind.
    Machine machine(13);
    ImageStore store(machine.ctx());
    faults::FaultConfig config;
    config.rate(faults::FaultSite::ManifestCorruption) = 1.0;
    faults::FaultInjector injector(config, &machine.ctx().clock());
    store.setFaultInjector(&injector);

    prefetch::WorkingSetManifest manifest("c-hello", 1, 4, 0.5);
    store.publishManifest(manifest);
    EXPECT_TRUE(store.hasManifest("c-hello"));
    EXPECT_EQ(store.fetchManifest("c-hello"), nullptr);
    // Dropped on the corrupted read, before any republish.
    EXPECT_FALSE(store.hasManifest("c-hello"));
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.manifests_corrupted"), 1);

    // Republish under a new image generation; with the fault cleared
    // the fresh blob must parse.
    store.setFaultInjector(nullptr);
    prefetch::WorkingSetManifest fresh("c-hello", 2, 4, 0.5);
    store.publishManifest(fresh);
    auto fetched = store.fetchManifest("c-hello");
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(fetched->imageGeneration(), 2u);
}

/**
 * Randomized audit of ImageStore's running page-cache count. Two
 * machines share a replica directory so republishing a new generation
 * on one turns the other's copy stale. The test remembers which image
 * each store holds locally and, after every publish, fetch (stale drop
 * included), evictLocal, reclaimFunction, page-cache fill and file
 * evict(), checks residentBytes() against the per-image sum the store
 * used to compute. It ends by destroying a store before its images
 * and filling their page caches afterwards.
 */
TEST(ImageStoreTest, ResidentBytesMatchesPerImageSumUnderRandomOps)
{
    net::Fabric fabric;
    remote::TemplateRegistry directory(&fabric);
    Machine m0(21), m1(22);
    Machine *machines[2] = {&m0, &m1};
    FunctionRegistry f0(m0), f1(m1);
    FunctionRegistry *registries[2] = {&f0, &f1};
    std::unique_ptr<ImageStore> stores[2] = {
        std::make_unique<ImageStore>(m0.ctx()),
        std::make_unique<ImageStore>(m1.ctx())};
    ChunkStoreConfig chunked;
    chunked.enabled = true;
    chunked.ramBudgetBytes = 4u << 20;
    stores[1]->configureChunks(chunked);
    for (net::NodeId i = 0; i < 2; ++i)
        stores[i]->attachFabric(&fabric, i, &directory);

    const char *functions[] = {"c-hello", "python-hello"};
    const auto format = ImageFormat::SeparatedWellFormed;
    // Every image ever built, with its machine, and each store's
    // local copies as the test expects them.
    std::vector<std::pair<std::shared_ptr<FuncImage>, int>> built;
    std::map<std::string, std::shared_ptr<FuncImage>> local[2];

    auto perImageSum = [&](int s) {
        std::size_t bytes = stores[s]->chunkCache().ramBytes();
        for (const auto &[name, image] : local[s])
            bytes += mem::bytesForPages(image->file().residentPages());
        return bytes;
    };
    auto fillPages = [&](sim::Rng &rng) {
        const auto &[image, m] = built[rng.uniformInt(built.size())];
        sim::SimContext &ctx = machines[m]->ctx();
        for (int k = 0; k < 8; ++k) {
            const auto page = static_cast<mem::PageIndex>(
                rng.uniformInt(image->totalPages()));
            if (rng.uniform() < 0.5)
                image->file().frameFor(ctx, page, rng.uniform() < 0.5);
            else
                image->file().prefetchFrame(ctx, page, nullptr);
        }
    };

    sim::Rng rng(2024);
    for (int step = 0; step < 400; ++step) {
        const int s = static_cast<int>(rng.uniformInt(2));
        const std::string fn = functions[rng.uniformInt(2)];
        ImageStore &store = *stores[s];
        const double dice = rng.uniform();
        if (dice < 0.15) {
            // Publish; sometimes a rebuilt (new-generation) image.
            auto &artifacts =
                registries[s]->artifactsFor(apps::appByName(fn));
            if (artifacts.separatedImage && rng.uniform() < 0.3)
                artifacts.separatedImage.reset();
            const bool fresh = !artifacts.separatedImage;
            auto image = sandbox::ensureSeparatedImage(artifacts);
            if (fresh)
                built.emplace_back(image, s);
            store.publish(image);
            local[s][fn] = image;
        } else if (dice < 0.35) {
            auto image = store.fetch(fn, format);
            if (image) {
                local[s][fn] = image;
            } else {
                EXPECT_FALSE(store.publishedRemotely(fn, format));
            }
        } else if (dice < 0.45) {
            store.evictLocal(fn, format);
            local[s].erase(fn);
        } else if (dice < 0.55) {
            const std::size_t want =
                local[s].contains(fn)
                    ? mem::bytesForPages(
                          local[s][fn]->file().residentPages())
                    : 0;
            EXPECT_EQ(store.reclaimFunction(fn), want);
            local[s].erase(fn);
        } else if (!built.empty() && dice < 0.9) {
            fillPages(rng);
        } else if (!built.empty()) {
            built[rng.uniformInt(built.size())].first->file().evict();
        }
        for (int i = 0; i < 2; ++i) {
            for (const char *name : functions)
                ASSERT_EQ(stores[i]->cachedLocally(name, format),
                          local[i].contains(name))
                    << "step " << step;
            ASSERT_EQ(stores[i]->residentBytes(), perImageSum(i))
                << "store " << i << " step " << step;
        }
    }
    EXPECT_GT(m0.ctx().stats().value("image.fetch.stale_drops") +
                  m1.ctx().stats().value("image.fetch.stale_drops"),
              0);
    EXPECT_GT(stores[0]->residentBytes(), 0u);

    // A store destroyed before its images: they keep filling and
    // evicting without reporting to it (ASan checks the writes).
    stores[1].reset();
    for (int k = 0; k < 20; ++k)
        fillPages(rng);
    for (auto &[image, m] : built)
        image->file().evict();
    EXPECT_EQ(stores[0]->residentBytes(),
              stores[0]->chunkCache().ramBytes());
}

TEST(ImageStoreDeathTest, ImageCachedByTwoStoresPanics)
{
    Machine machine(23);
    FunctionRegistry registry(machine);
    ImageStore a(machine.ctx()), b(machine.ctx());
    auto image = buildImage(registry, "c-hello");
    a.publish(image);
    EXPECT_DEATH(b.publish(image), "residency already attached");
}

} // namespace
} // namespace catalyzer::snapshot
