#include "catalyzer/runtime.h"

#include <algorithm>
#include <cmath>

#include "guest/syscall_policy.h"
#include "net/remote_pager.h"
#include "prefetch/fault_recorder.h"
#include "prefetch/prefetcher.h"
#include "sim/clock.h"
#include "sim/logging.h"
#include "snapshot/io_reconnect.h"

namespace catalyzer::core {

using sandbox::BootKind;
using sandbox::BootReport;
using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::SandboxInstance;

namespace {

/** Image pages per batched SSD read when prefetching a working set. */
constexpr std::size_t kPrefetchBatchPages = 64;
/** Share of the traces a page must appear in to join the stable set. */
constexpr double kWorkingSetMinFraction = 0.5;
/** Pages per remote pull request on the remote-sfork demand path. */
constexpr std::size_t kRemotePullBatchPages = 32;
/** Fraction of each hello-app's modules preloaded by the language
 *  runtime template. */
constexpr double kLanguageTemplateCoreFraction = 0.8;

/**
 * Sandbox acquisition from the Zygote pool: the boot's state lands in
 * a pre-built, generic sandbox, so nothing is constructed on the path.
 */
std::unique_ptr<SandboxInstance>
acquireZygote(ZygotePool &zygotes, FunctionArtifacts &fn,
              const std::string &name, BootKind kind, BootReport &report,
              sim::Stopwatch &watch)
{
    std::unique_ptr<SandboxInstance> inst;
    {
        trace::ScopedSpan span(report.trace(), "sandbox-acquire");
        span.attr("mechanism", "zygote");
        Zygote z = zygotes.acquire(span.context());
        inst = std::make_unique<SandboxInstance>(fn.machine(), fn, name,
                                                 *z.proc, kind);
        inst->setGuest(std::move(z.guest));
    }
    report.addSandboxStage("zygote-acquire", watch.elapsed(),
                           /*emit_span=*/false);
    watch.restart();
    return inst;
}

/**
 * Specialize: append the function config, import its binaries and
 * mount the function rootfs over the base. Returns where the binary
 * is mapped.
 */
mem::PageIndex
specialize(SandboxInstance &inst, BootReport &report, sim::Stopwatch &watch)
{
    FunctionArtifacts &fn = inst.artifacts();
    const apps::AppProfile &app = fn.app();
    auto &ctx = inst.machine().ctx();
    const auto &costs = ctx.costs();
    ctx.charge(costs.zygoteAppendConfig);
    const std::size_t binary_mib =
        mem::bytesForPages(app.binaryPages) >> 20;
    ctx.charge(costs.zygoteImportPerMiB *
               static_cast<std::int64_t>(std::max<std::size_t>(
                   binary_mib, 1)));
    const mem::PageIndex binary_va = inst.space().mapFile(
        fn.binary(), 0, app.binaryPages, mem::MapKind::FilePrivate,
        false, "binary");
    inst.guest().mountRootfs(1);
    inst.setRootfs(std::make_unique<vfs::OverlayRootfs>(
        ctx, fn.fsServer()));
    report.addSandboxStage("specialize", watch.elapsed());
    watch.restart();
    return binary_va;
}

/**
 * Separated state recovery: stage-1 map + stage-2 parallel fix-up of
 * the relation table, then establish non-I/O kernel state. With
 * @p separated off (ablation) the objects are deserialized one by one
 * on the path instead. @p cold_cache marks the arena pages' first
 * touch as a page-cache miss.
 */
void
recoverSeparatedState(SandboxInstance &inst,
                      const snapshot::FuncImage &image,
                      mem::PageIndex base_va, bool separated,
                      bool cold_cache, BootReport &report,
                      sim::Stopwatch &watch)
{
    auto &ctx = inst.machine().ctx();
    const auto &costs = ctx.costs();
    const objgraph::SeparatedImage &sep = image.separated();
    {
        trace::ScopedSpan span(report.trace(), "separated-state-fixup");
        span.attr("separated", separated ? "true" : "false");
        span.attr("objects",
                  static_cast<std::int64_t>(sep.objectCount()));
        span.attr("relocs", static_cast<std::int64_t>(sep.relocCount()));
        if (!separated) {
            // Ablation: one-by-one deserialization on the path.
            const auto n = static_cast<std::int64_t>(sep.objectCount());
            ctx.chargeCounted("restore.deserialized_objects",
                              costs.deserializeObject * n, n);
        }
        objgraph::ObjectGraph graph = sep.reconstruct(span.context());
        const auto nobjects =
            static_cast<std::int64_t>(graph.objectCount());
        if (separated) {
            const auto nrelocs = static_cast<std::int64_t>(sep.relocCount());
            ctx.chargeParallel(costs.relationFixupPerPointer, nrelocs);
            ctx.stats().incr("catalyzer.pointer_fixups", nrelocs);
            // Stage-2 dirties the pointer-bearing arena pages: real COW
            // faults against the shared image mapping (Table 3's cost).
            const mem::PageIndex arena_va =
                base_va + image.metadataSectionStart();
            for (std::uint64_t rel : sep.pointerPageList())
                inst.space().touch(arena_va + rel, /*write=*/true,
                                   cold_cache);
            ctx.chargeParallel(costs.redoObject, nobjects);
            ctx.charge(costs.redoObjectSequentialPart * nobjects);
        } else {
            ctx.charge((costs.redoObject +
                        costs.redoObjectSequentialPart) *
                       nobjects);
        }
        inst.guest().setState(std::move(graph));
        for (int i = 0; i < inst.artifacts().app().blockingThreads; ++i)
            inst.guest().threads().addBlockingThread();
    }
    report.addAppStage("recover-kernel", watch.elapsed(),
                       /*emit_span=*/false);
    watch.restart();
}

/**
 * I/O: copy the checkpointed connection table and reconnect lazily or,
 * with @p lazy off (ablation), eagerly. @p use_startup_set re-establishes
 * the I/O cache's startup set on the path; @p record_startup_set fills
 * an empty cache from this boot's table.
 */
void
reconnectIo(SandboxInstance &inst, const snapshot::FuncImage &image,
            bool lazy, bool use_startup_set, bool record_startup_set,
            faults::FaultInjector &injector, BootReport &report,
            sim::Stopwatch &watch)
{
    FunctionArtifacts &fn = inst.artifacts();
    auto &ctx = inst.machine().ctx();
    vfs::IoConnectionTable &io = inst.guest().io();
    {
        trace::ScopedSpan span(report.trace(), "io-reconnect");
        span.attr("lazy", lazy ? "true" : "false");
        span.attr("connections",
                  static_cast<std::int64_t>(image.ioTable().size()));
        const trace::TraceContext ictx = span.context();
        io.cloneFrom(image.ioTable());
        io.dropAll();
        if (!lazy) {
            // Eager ablation: a connection whose retries all fail stays
            // down and re-establishes lazily at the first request.
            for (auto &conn : io.all())
                snapshot::reconnectWithRetry(ctx, conn, &fn.fsServer(),
                                             &injector, ictx);
        } else {
            // Deferring is not free: each fd is tagged not-reopened and
            // the async re-establishment is queued.
            ctx.charge(ctx.costs().ioLazyMarkPerConn *
                       static_cast<std::int64_t>(io.count()));
            if (use_startup_set && !fn.ioCache.empty()) {
                // The cache tells us which connections the function
                // uses right after boot; re-establish exactly those on
                // the path.
                for (auto &conn : io.all()) {
                    if (!conn.usedAtStartup)
                        continue;
                    if (!snapshot::reconnectWithRetry(
                            ctx, conn, &fn.fsServer(), &injector,
                            ictx)) {
                        // Repeatedly failing entry: invalidate it so
                        // later boots stop reconnecting it eagerly;
                        // this boot degrades it to a lazy reconnect at
                        // the first request.
                        std::erase_if(
                            fn.ioCache,
                            [&](const vfs::IoConnection &cached) {
                                return cached.path == conn.path;
                            });
                        ctx.stats().incr(
                            "catalyzer.io_cache_invalidated");
                        ctx.stats().incr(
                            "boot.fallback.io_eager_lazy");
                    }
                }
                span.attr("cache_hit", "true");
                ctx.stats().incr("catalyzer.io_cache_hits");
            }
        }
        if (record_startup_set && lazy && fn.ioCache.empty()) {
            // A first boot records the deterministic startup set.
            for (const auto &conn : io.all()) {
                if (conn.usedAtStartup)
                    fn.ioCache.push_back(conn);
            }
        }
        inst.guest().syncFdTable();
    }
    report.addAppStage("reconnect-io", watch.elapsed(),
                       /*emit_span=*/false);
}

/**
 * Finish a restored instance: its memory layout over the image mapped
 * at @p base_va, the preparation work a warmed image already carries,
 * its thread count and its boot latency.
 */
void
finishRestore(SandboxInstance &inst, const snapshot::FuncImage &image,
              mem::PageIndex binary_va, mem::PageIndex base_va,
              const BootReport &report)
{
    inst.setMemoryLayout(binary_va, base_va + image.memorySectionStart(),
                         image.state().memoryPages,
                         /*heap_on_base=*/true);
    // A warmed image (user-guided pre-initialization) carries the
    // handler's preparation work; restored instances skip it.
    inst.setPrepFraction(image.state().warmedPrepFraction);
    inst.proc().setThreadCount(inst.guest().threads().totalThreads());
    inst.setBootLatency(report.total());
}

} // namespace

CatalyzerRuntime::CatalyzerRuntime(sandbox::Machine &machine,
                                   CatalyzerOptions options)
    : machine_(machine), options_(options),
      injector_(options.faults, &machine.ctx().clock()),
      zygotes_(machine), images_(machine.ctx()),
      lang_registry_(machine)
{
    zygotes_.setFaultInjector(&injector_);
    images_.setFaultInjector(&injector_);
    images_.configureChunks(options_.chunkedImages);
    if (options_.zygotePrewarm > 0)
        zygotes_.prewarm(options_.zygotePrewarm);
}

BootResult
CatalyzerRuntime::bootCold(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    BootResult result = bootRestore(fn, /*warm=*/false, trace);
    machine_.ctx().stats().observe("boot.latency.Catalyzer-cold",
                                   result.report.total());
    return result;
}

BootResult
CatalyzerRuntime::bootWarm(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    // Warm boot presumes earlier instances: establish the shared base
    // (and the I/O cache) with one offline cold boot if missing.
    if (!fn.sharedBase) {
        // The primer instance is dropped immediately; the Base-EPT and
        // the I/O cache survive in the artifacts. It is offline work,
        // so it stays out of the trace and the latency histograms.
        bootRestore(fn, /*warm=*/false);
    }
    BootResult result = bootRestore(fn, /*warm=*/true, trace);
    machine_.ctx().stats().observe("boot.latency.Catalyzer-warm",
                                   result.report.total());
    return result;
}

std::shared_ptr<snapshot::FuncImage>
CatalyzerRuntime::fetchRemoteImage(FunctionArtifacts &fn,
                                   trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto format = snapshot::ImageFormat::SeparatedWellFormed;
    const faults::RetryPolicy &retry = injector_.retry();
    const int max_attempts = std::max(1, retry.maxAttempts);
    for (int attempt = 1;; ++attempt) {
        auto image = images_.fetch(fn.app().name, format, trace);
        if (image)
            return image;
        if (!images_.publishedRemotely(fn.app().name, format))
            sim::panic("fetchRemoteImage: %s was never published",
                       fn.app().name.c_str());
        // Injected transfer failure (the store already charged the
        // attempt timeout); back off and retry until the budget runs
        // out, then fail the restore tier.
        if (attempt >= max_attempts)
            throw faults::FaultError(
                faults::FaultSite::ImageFetch,
                "remote fetch of " + fn.app().name + " failed after " +
                    std::to_string(max_attempts) + " attempts");
        ctx.stats().incr("catalyzer.image_fetch_retries");
        ctx.charge(retry.backoff(attempt, injector_.rng()));
    }
}

std::shared_ptr<snapshot::FuncImage>
CatalyzerRuntime::acquireImage(FunctionArtifacts &fn,
                               trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    trace::ScopedSpan span(trace, "image-acquire");
    span.attr("remote", options_.remoteImages ? "true" : "false");
    const bool was_built = static_cast<bool>(fn.separatedImage);
    auto image = sandbox::ensureSeparatedImage(fn);

    if (options_.remoteImages) {
        // A freshly built image stands for one produced elsewhere: it
        // goes to remote storage and this machine must fetch it. So
        // does one built offline but never published (prepare()).
        if (!was_built ||
            !images_.publishedRemotely(
                fn.app().name, snapshot::ImageFormat::SeparatedWellFormed)) {
            images_.publish(image);
            images_.evictLocal(fn.app().name,
                               snapshot::ImageFormat::SeparatedWellFormed);
        }
        image = fetchRemoteImage(fn, span.context());
    }

    if (options_.verifyImages) {
        const int max_rebuilds =
            std::max(1, injector_.retry().maxAttempts);
        for (int rebuild = 0;; ++rebuild) {
            // Injected storage rot hits the image just before the
            // integrity check would catch it.
            if (injector_.shouldFail(faults::FaultSite::ImageCorruption,
                                     ctx.stats()))
                image->markCorrupted();
            if (snapshot::verifyImage(ctx, *image))
                break;
            if (rebuild >= max_rebuilds)
                throw faults::FaultError(
                    faults::FaultSite::ImageCorruption,
                    fn.app().name + " image still corrupted after " +
                        std::to_string(max_rebuilds) + " rebuilds");
            // Corrupted image: rebuild from a fresh checkpoint
            // (offline) and republish, then continue with the clean
            // copy.
            ctx.stats().incr("catalyzer.image_rebuilds");
            fn.separatedImage.reset();
            // Any Base-EPT over the bad image must not serve new boots;
            // live instances keep their shared_ptr until they exit.
            fn.sharedBase.reset();
            fn.firstRestoreDone = false;
            image = sandbox::ensureSeparatedImage(fn);
            if (options_.remoteImages) {
                // Symmetric with the initial-publish path: the rebuilt
                // image goes to remote storage and this machine pays
                // the re-fetch, it does not keep the locally built
                // copy for free.
                images_.publish(image);
                images_.evictLocal(
                    fn.app().name,
                    snapshot::ImageFormat::SeparatedWellFormed);
                image = fetchRemoteImage(fn, span.context());
                ctx.stats().incr(
                    "catalyzer.image_refetch_after_rebuild");
            }
        }
    }
    return image;
}

std::shared_ptr<prefetch::WorkingSetManifest>
CatalyzerRuntime::ensureWorkingSet(FunctionArtifacts &fn,
                                   const snapshot::FuncImage &image)
{
    if (!options_.recordWorkingSet && !options_.prefetchWorkingSet)
        return nullptr;
    auto &ctx = machine_.ctx();

    if (!fn.workingSet)
        fn.workingSet = images_.fetchManifest(fn.app().name);

    if (fn.workingSet && !fn.workingSet->matches(image.generation())) {
        // The image was rebuilt (warming, corruption repair): the
        // recorded pages describe the old layout. Drop the manifest and
        // fall back to demand paging while a fresh one is recorded.
        ctx.stats().incr("prefetch.manifest_stale");
        fn.workingSet.reset();
        images_.dropManifest(fn.app().name);
    }

    if (!fn.workingSet && options_.recordWorkingSet) {
        fn.workingSet = std::make_shared<prefetch::WorkingSetManifest>(
            fn.app().name, image.generation(), options_.workingSetTraces,
            kWorkingSetMinFraction);
    }

    if (fn.workingSet && fn.workingSet->dirty()) {
        // A trace was merged since the last boot: publish the manifest
        // next to the func-image (asynchronous background work).
        images_.publishManifest(*fn.workingSet);
        fn.workingSet->markPublished();
    }
    return fn.workingSet;
}

BootResult
CatalyzerRuntime::bootRestore(FunctionArtifacts &fn, bool warm,
                              trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    const apps::AppProfile &app = fn.app();

    trace::ScopedSpan boot_span(
        trace, std::string("boot/Catalyzer-") + (warm ? "warm" : "cold"));
    boot_span.attr("function", app.name);
    const trace::TraceContext tctx = boot_span.context();

    // Offline build / remote fetch / integrity check as configured.
    auto image = acquireImage(fn, tctx);

    BootResult result;
    result.report.bindTrace(tctx);
    sim::Stopwatch watch(ctx.clock());
    const std::string tag =
        (warm ? "warm" : "cold") + std::to_string(boot_seq_++);

    //
    // Sandbox acquisition. Warm boots specialize a Zygote; cold boots
    // construct the sandbox on the path (with the tuned host: PML off,
    // kvcalloc cache on), matching the paper's Catalyzer-restore.
    //
    std::unique_ptr<SandboxInstance> inst;
    if (warm) {
        inst = acquireZygote(zygotes_, fn, app.name + "-" + tag,
                             BootKind::WarmRestore, result.report, watch);
    } else {
        {
            trace::ScopedSpan span(tctx, "sandbox-acquire");
            span.attr("mechanism", "construct");
            ctx.charge(costs.parseConfig);
            inst = sandbox::makeBareInstance(fn, BootKind::ColdRestore,
                                             tag.c_str());
            sandbox::constructGVisorSandbox(inst->guest(), inst->space(),
                                            ZygotePool::kvmConfig(),
                                            span.context());
        }
        result.report.addSandboxStage("construct-sandbox",
                                      watch.elapsed(),
                                      /*emit_span=*/false);
        watch.restart();
    }
    const mem::PageIndex binary_va =
        specialize(*inst, result.report, watch);

    //
    // Overlay memory: map the func-image (cold) or share the live
    // Base-EPT (warm).
    //
    const bool cold_cache = !warm && !fn.firstRestoreDone;
    mem::PageIndex base_va = 0;
    {
        trace::ScopedSpan span(tctx, "overlay-map");
        span.attr("mechanism", warm ? "share-base-ept" : "map-image");
        span.attr("image_pages",
                  static_cast<std::int64_t>(image->totalPages()));
        if (!fn.sharedBase) {
            ctx.charge(costs.imageManifestParse);
            fn.sharedBase = std::make_shared<mem::BaseMapping>(
                machine_.frames(), image->file(), 0, image->totalPages(),
                app.name + "-base");
        } else if (!warm) {
            ctx.charge(costs.imageManifestParse);
        }
        base_va = inst->space().attachBase(fn.sharedBase);
    }
    if (!options_.overlayMemory) {
        // Ablation: eagerly fault and copy the whole memory section.
        inst->space().touchRange(base_va + image->memorySectionStart(),
                                 image->state().memoryPages,
                                 /*write=*/true, cold_cache);
    }
    result.report.addAppStage(warm ? "share-mapping" : "map-image",
                              watch.elapsed(), /*emit_span=*/false);
    watch.restart();

    //
    // Working-set prefetch (REAP-style): load the recorded stable set
    // into the just-established Base-EPT in large batched reads, so the
    // first request demand-pages only what the manifest missed. The
    // recording window for refining the manifest is armed further down,
    // once the instance is assembled.
    //
    std::shared_ptr<prefetch::WorkingSetManifest> manifest =
        ensureWorkingSet(fn, *image);
    std::vector<mem::PageIndex> prefetched_set;
    if (options_.prefetchWorkingSet) {
        trace::ScopedSpan span(tctx, "prefetch");
        if (manifest && manifest->usable()) {
            ctx.stats().incr("prefetch.manifest_hits");
            std::vector<mem::PageIndex> stable = manifest->stableSet();
            span.attr("stable_pages",
                      static_cast<std::int64_t>(stable.size()));
            span.attr("traces",
                      static_cast<std::int64_t>(manifest->traceCount()));
            prefetch::prefetchIntoBase(ctx, *fn.sharedBase, stable,
                                       kPrefetchBatchPages,
                                       span.context());
            prefetched_set = std::move(stable);
        } else {
            // Missing or still-empty manifest: plain demand paging.
            ctx.stats().incr("prefetch.manifest_misses");
            span.attr("skipped", manifest ? "manifest-empty"
                                          : "manifest-missing");
        }
        result.report.addAppStage("prefetch", watch.elapsed(),
                                  /*emit_span=*/false);
        watch.restart();
    }

    //
    // Arm the restore-to-first-response recording window: refine the
    // manifest while it is not frozen, and audit a prefetched set
    // against the pages the window actually touches (hit rate, wasted
    // pages). The window closes at the end of the first invocation.
    //
    const bool record_trace =
        manifest && options_.recordWorkingSet && !manifest->frozen();
    if (record_trace || !prefetched_set.empty()) {
        auto recorder = std::make_unique<prefetch::FaultRecorder>(
            base_va, image->totalPages());
        if (record_trace)
            recorder->enableRecording(manifest);
        if (!prefetched_set.empty())
            recorder->enableAudit(std::move(prefetched_set));
        inst->armWorkingSetRecorder(std::move(recorder));
    }

    recoverSeparatedState(*inst, *image, base_va, options_.separatedState,
                          cold_cache, result.report, watch);
    // Warm boots reconnect the I/O cache's startup set on the path; a
    // first cold boot records it.
    reconnectIo(*inst, *image, options_.lazyIoReconnection,
                /*use_startup_set=*/warm, /*record_startup_set=*/!warm,
                injector_, result.report, watch);
    finishRestore(*inst, *image, binary_va, base_va, result.report);
    fn.firstRestoreDone = true;
    ctx.stats().incr(warm ? "catalyzer.warm_boots"
                          : "catalyzer.cold_boots");
    sim::debugLog("boot Catalyzer-%s/%s: %.3f ms",
                  warm ? "warm" : "cold", app.name.c_str(),
                  result.report.total().toMs());
    result.instance = std::move(inst);
    return result;
}

std::unique_ptr<SandboxInstance>
CatalyzerRuntime::sforkFrom(SandboxInstance &tmpl, FunctionArtifacts &fn,
                            BootReport &report, const char *tag)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    sim::Stopwatch watch(ctx.clock());

    // Injected sfork failures fail before the child exists; retries are
    // cheap, and exhaustion fails the fork tier (degrades to warm).
    injector_.checkWithRetry(ctx, faults::FaultSite::Sfork);

    hostos::SforkOptions opts;
    opts.childName = fn.app().name + "-" + tag;
    opts.rerandomizeAslr = options_.aslrRerandomizeOnSfork;
    std::unique_ptr<SandboxInstance> inst;
    {
        trace::ScopedSpan span(report.trace(), "sfork");
        span.attr("template", tmpl.name());
        span.attr("rerandomize_aslr",
                  opts.rerandomizeAslr ? "true" : "false");
        hostos::HostProcess &child =
            machine_.host().sfork(tmpl.proc(), opts);
        inst = std::make_unique<SandboxInstance>(
            machine_, fn, opts.childName, child, BootKind::ForkBoot);
    }
    report.addSandboxStage("sfork", watch.elapsed(),
                           /*emit_span=*/false);
    watch.restart();

    trace::ScopedSpan expand_span(report.trace(), "expand");

    // Guest state: the object graph and fd tables live in COWed memory;
    // the child re-expands its threads from the saved contexts and fixes
    // the handled-syscall state (Table 1).
    auto guest = std::make_unique<guest::GuestKernel>(
        ctx, opts.childName + "-kernel");
    guest->setState(tmpl.guest().state());
    guest->threads().adoptTransientState(tmpl.guest().threads());
    guest->threads().expandFromTransient();
    guest->io().cloneFrom(tmpl.guest().io().all());
    // Read-only file descriptors stay valid across sfork; sockets
    // must reconnect (lazily, via the Reconnect handler).
    for (auto &conn : guest->io().all()) {
        conn.established =
            conn.established && conn.kind != vfs::ConnKind::Socket;
    }
    guest->syncFdTable();
    const auto handled = static_cast<std::int64_t>(
        guest::countSyscallsWithClass(guest::SyscallClass::Handled));
    ctx.charge(costs.syscallBase * handled);

    inst->setGuest(std::move(guest));
    if (tmpl.rootfs())
        inst->setRootfs(tmpl.rootfs()->clone());
    inst->setMemoryLayout(0, tmpl.heapVa(), tmpl.heapPages(),
                          tmpl.heapOnBase());
    inst->setPrepFraction(tmpl.prepFraction());
    inst->proc().setThreadCount(inst->guest().threads().totalThreads());
    report.addSandboxStage("expand", watch.elapsed(),
                           /*emit_span=*/false);
    ctx.stats().incr("catalyzer.fork_boots");
    return inst;
}

BootResult
CatalyzerRuntime::bootFork(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    SandboxInstance &tmpl = ensureTemplate(fn); // offline
    if (injector_.shouldFail(faults::FaultSite::TemplateDeath,
                             machine_.ctx().stats())) {
        // The template sandbox died (crash, OOM-kill). No retry makes
        // sense — drop it so a later fork boot rebuilds it offline, and
        // fail the fork tier now (degrades to warm).
        dropTemplate(fn.app().name);
        machine_.ctx().stats().incr("catalyzer.template_deaths");
        throw faults::FaultError(faults::FaultSite::TemplateDeath,
                                 fn.app().name + " template died");
    }
    trace::ScopedSpan boot_span(trace, "boot/Catalyzer-sfork");
    boot_span.attr("function", fn.app().name);
    BootResult result;
    result.report.bindTrace(boot_span.context());
    result.instance = sforkFrom(
        tmpl, fn, result.report,
        ("fork" + std::to_string(boot_seq_++)).c_str());
    result.instance->setBootLatency(result.report.total());
    machine_.ctx().stats().observe("boot.latency.Catalyzer-sfork",
                                   result.report.total());
    return result;
}

BootResult
CatalyzerRuntime::bootRemoteFork(FunctionArtifacts &fn,
                                 const RemoteForkSource &src,
                                 trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    const apps::AppProfile &app = fn.app();
    std::shared_ptr<snapshot::FuncImage> image = src.image;

    // The lender may be gone by the time the fork request arrives; like
    // template death, no retry makes sense — fail the tier now so the
    // platform degrades to the local chain.
    if (injector_.shouldFail(faults::FaultSite::RemotePeerDeath,
                             ctx.stats())) {
        ctx.stats().incr("remote.peer_lost");
        throw faults::FaultError(faults::FaultSite::RemotePeerDeath,
                                 app.name + " fork peer " +
                                     std::to_string(src.peer) +
                                     " unreachable");
    }

    trace::ScopedSpan boot_span(trace, "boot/Catalyzer-remote-sfork");
    boot_span.attr("function", app.name);
    boot_span.attr("peer", static_cast<std::int64_t>(src.peer));
    const trace::TraceContext tctx = boot_span.context();

    BootResult result;
    result.report.bindTrace(tctx);
    sim::Stopwatch watch(ctx.clock());
    const std::string tag = "rfork" + std::to_string(boot_seq_++);

    //
    // Lender-side half of the stitched trace: a "lend-template" span in
    // the *lender's* tracer carrying the borrower's distributed trace
    // id, open from the handshake through the working-set pull. The
    // fleet exporter lines both halves up by that shared id.
    //
    trace::TraceContext peer_ctx;
    if (src.peerTracer != nullptr && src.peerClock != nullptr &&
        tctx.enabled())
        peer_ctx = tctx.withTracer(*src.peerTracer, *src.peerClock);
    trace::ScopedSpan lend_span(peer_ctx, "lend-template");
    if (lend_span.id() != 0) {
        lend_span.attr("function", app.name);
        lend_span.attr("borrower", static_cast<std::int64_t>(src.self));
    }

    //
    // Handshake: one round trip fetches the fork descriptor (the
    // template's layout, thread contexts and relation-table index) from
    // the lender. The memory itself stays remote.
    //
    {
        trace::ScopedSpan span(tctx, "remote-handshake");
        span.attr("peer", static_cast<std::int64_t>(src.peer));
        src.fabric->transfer(ctx, src.peer, src.self, 4096,
                             "fork-descriptor", span.context());
    }
    result.report.addSandboxStage("remote-handshake", watch.elapsed(),
                                  /*emit_span=*/false);
    watch.restart();

    //
    // The borrowed state lands in a local Zygote, specialized exactly as
    // a local restore would.
    //
    std::unique_ptr<SandboxInstance> inst =
        acquireZygote(zygotes_, fn, app.name + "-" + tag,
                      BootKind::ForkBoot, result.report, watch);
    const mem::PageIndex binary_va =
        specialize(*inst, result.report, watch);

    //
    // Remote overlay: a Base-EPT over a *local mirror* of the lender's
    // image, starting empty. Creating it (first borrow, or a lender
    // image rebuild) streams the metadata section — the arena and
    // relation table the fixup below walks — in one batched transfer;
    // everything else arrives later, pulled on demand.
    //
    if (fn.remoteBase && fn.remoteGeneration != image->generation()) {
        fn.remoteBase.reset();
        fn.remoteMirror.reset();
        ctx.stats().incr("remote.mirror_invalidated");
    }
    mem::PageIndex base_va = 0;
    {
        trace::ScopedSpan span(tctx, "remote-overlay");
        span.attr("image_pages",
                  static_cast<std::int64_t>(image->totalPages()));
        if (!fn.remoteBase) {
            ctx.charge(costs.imageManifestParse);
            fn.remoteMirror = std::make_unique<mem::BackingFile>(
                machine_.frames(), app.name + "-remote-mirror",
                image->totalPages());
            fn.remoteBase = std::make_shared<mem::BaseMapping>(
                machine_.frames(), *fn.remoteMirror, 0,
                image->totalPages(), app.name + "-remote-base");
            fn.remoteGeneration = image->generation();
            const std::size_t meta_pages = image->metadataSectionPages();
            src.fabric->transfer(ctx, src.peer, src.self,
                                 mem::bytesForPages(meta_pages),
                                 "image-metadata", span.context());
            for (std::size_t i = 0; i < meta_pages; ++i)
                fn.remoteBase->populatePrefetched(
                    ctx, image->metadataSectionStart() + i);
            span.attr("metadata_pages",
                      static_cast<std::int64_t>(meta_pages));
        }
        base_va = inst->space().attachBase(fn.remoteBase);
    }
    result.report.addAppStage("map-remote-image", watch.elapsed(),
                              /*emit_span=*/false);
    watch.restart();

    //
    // Working-set pull: the lender's manifest tells us which pages the
    // first request will need; stream the stable set in one batched
    // transfer instead of faulting it page by page over the fabric.
    //
    if (src.manifest && src.manifest->usable() &&
        src.manifest->matches(image->generation())) {
        trace::ScopedSpan span(tctx, "remote-prefetch");
        const std::vector<mem::PageIndex> stable =
            src.manifest->stableSet();
        std::vector<mem::PageIndex> missing;
        for (mem::PageIndex page : stable) {
            if (page < image->totalPages() && !fn.remoteBase->lookup(page))
                missing.push_back(page);
        }
        const auto pulled = static_cast<std::int64_t>(missing.size());
        span.attr("stable_pages",
                  static_cast<std::int64_t>(stable.size()));
        span.attr("pulled_pages", pulled);
        if (pulled > 0) {
            src.fabric->transfer(ctx, src.peer, src.self,
                                 mem::bytesForPages(missing.size()),
                                 "working-set", span.context());
            for (mem::PageIndex page : missing)
                fn.remoteBase->populatePrefetched(ctx, page);
            ctx.stats().incr("remote.prefetch_pages", pulled);
        }
        result.report.addAppStage("remote-prefetch", watch.elapsed(),
                                  /*emit_span=*/false);
        watch.restart();
    }

    //
    // Separated state recovery against the mirrored metadata (already
    // local, so the fixup runs at memory speed like a local restore).
    // The lender's image is always separated: the relation-table fixup
    // runs whatever this machine's separatedState ablation says.
    //
    recoverSeparatedState(*inst, *image, base_va, /*separated=*/true,
                          /*cold_cache=*/false, result.report, watch);

    //
    // I/O: connections never survive a machine boundary — everything
    // reconnects on this machine (lazily unless ablated), and the I/O
    // cache describes the local restore path, not this one.
    //
    reconnectIo(*inst, *image, options_.lazyIoReconnection,
                /*use_startup_set=*/false, /*record_startup_set=*/false,
                injector_, result.report, watch);

    //
    // Everything the boot did not pull stays remote: install the pager
    // as the instance's lifetime fault observer, so later Base-EPT
    // fills inside the mirrored window also cross the fabric (batched,
    // MITOSIS-style). Working-set recording is skipped for borrowed
    // instances — the lender owns the manifest.
    //
    lend_span.finish();
    inst->setLifetimePager(std::make_unique<net::RemotePager>(
        ctx, *src.fabric, src.self, src.peer, base_va,
        image->totalPages(), &injector_, kRemotePullBatchPages,
        tctx, peer_ctx));
    finishRestore(*inst, *image, binary_va, base_va, result.report);
    ctx.stats().incr("catalyzer.remote_fork_boots");
    ctx.stats().incr("remote.fork_hits");
    ctx.stats().observe("boot.latency.Catalyzer-remote-sfork",
                        result.report.total());
    sim::debugLog("boot Catalyzer-remote-sfork/%s from node %u: %.3f ms",
                  app.name.c_str(), src.peer,
                  result.report.total().toMs());
    result.instance = std::move(inst);
    return result;
}

BootResult
CatalyzerRuntime::bootFromLanguageTemplate(FunctionArtifacts &fn,
                                           trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    const apps::AppProfile &app = fn.app();
    SandboxInstance &tmpl = ensureLanguageTemplate(app.language);

    trace::ScopedSpan boot_span(trace, "boot/Catalyzer-lang-template");
    boot_span.attr("function", app.name);
    boot_span.attr("language", apps::languageName(app.language));
    BootResult result;
    result.report.bindTrace(boot_span.context());
    result.instance = sforkFrom(
        tmpl, fn, result.report,
        ("lang" + std::to_string(boot_seq_++)).c_str());
    SandboxInstance &inst = *result.instance;
    sim::Stopwatch watch(ctx.clock());

    //
    // Load the function on demand: its own classes/modules beyond the
    // runtime core the template preloaded, its binary, and any heap it
    // needs beyond the template's.
    //
    const apps::AppProfile &base =
        tmpl.artifacts().app(); // the language's hello app
    const auto core = static_cast<std::size_t>(
        kLanguageTemplateCoreFraction *
        static_cast<double>(base.modulesLoaded));
    const std::size_t extra_modules =
        app.modulesLoaded > core ? app.modulesLoaded - core : 0;
    ctx.charge(app.perModuleCost *
               static_cast<std::int64_t>(extra_modules) *
               costs.gvisorAppInitFactor);

    const mem::PageIndex binary_va = inst.space().mapFile(
        fn.binary(), 0, app.binaryPages, mem::MapKind::FilePrivate,
        false, "fn-binary");
    inst.space().touchRange(binary_va, app.binaryPages / 4,
                            /*write=*/false, !fn.firstBootDone);

    if (app.heapPages() > tmpl.heapPages()) {
        const std::size_t extra = app.heapPages() - tmpl.heapPages();
        const mem::PageIndex extra_va =
            inst.space().mapAnon(extra, true, "fn-heap");
        inst.space().touchRange(extra_va, extra, /*write=*/true);
    }

    // The function's own I/O connections are opened as it initializes,
    // beyond the ones inherited from the language template.
    const std::size_t inherited = inst.guest().io().count();
    for (std::size_t i = inherited; i < app.ioConnections; ++i) {
        const bool socket = i % 4 == 1;
        if (socket) {
            ctx.charge(costs.openSocket);
            inst.guest().io().add(vfs::ConnKind::Socket,
                                  "tcp://backend:" + std::to_string(i),
                                  i < app.ioConnections / 4, i % 2 == 0);
        } else {
            vfs::FdEntry entry;
            const std::string path =
                "/app/data/conn" + std::to_string(i);
            fn.fsServer().openReadOnly(path, &entry);
            inst.guest().io().add(vfs::ConnKind::File, path,
                                  i < app.ioConnections / 4, i % 2 == 0);
        }
    }
    inst.guest().setState(objgraph::ObjectGraph::synthesize(
        ctx.rng(), app.graphSpec()));
    result.report.addAppStage("load-function", watch.elapsed());

    inst.setBootLatency(result.report.total());
    ctx.stats().observe("boot.latency.Catalyzer-lang-template",
                        result.report.total());
    ctx.stats().incr("catalyzer.lang_template_boots");
    return result;
}

std::unique_ptr<SandboxInstance>
CatalyzerRuntime::bringUpTemplate(FunctionArtifacts &fn)
{
    // Offline template initialization: restore an instance to the
    // func-entry point. The template is a *running* sandbox, so its I/O
    // connections come up (offline) before it collapses into the
    // transient single-thread state for sforking.
    BootResult boot = bootRestore(fn, /*warm=*/false);
    std::unique_ptr<SandboxInstance> tmpl = std::move(boot.instance);
    // Offline bring-up tolerates reconnect faults: a connection whose
    // retries fail stays down and children reconnect it lazily.
    for (auto &conn : tmpl->guest().io().all())
        snapshot::reconnectWithRetry(machine_.ctx(), conn,
                                     &fn.fsServer(), &injector_);
    tmpl->guest().threads().enterTransientSingleThread();
    tmpl->proc().setThreadCount(1);
    return tmpl;
}

SandboxInstance &
CatalyzerRuntime::ensureTemplate(FunctionArtifacts &fn)
{
    auto it = templates_.find(fn.app().name);
    if (it != templates_.end())
        return *it->second;

    std::unique_ptr<SandboxInstance> tmpl = bringUpTemplate(fn);
    machine_.ctx().stats().incr("catalyzer.templates_built");
    auto &ref = *tmpl;
    templates_.emplace(fn.app().name, std::move(tmpl));
    return ref;
}

SandboxInstance &
CatalyzerRuntime::ensureLanguageTemplate(apps::Language lang)
{
    auto it = lang_templates_.find(lang);
    if (it != lang_templates_.end())
        return *it->second;

    static const std::map<apps::Language, const char *> kBaseApp = {
        {apps::Language::C, "c-hello"},
        {apps::Language::Cpp, "ds-uniqueid"},
        {apps::Language::Java, "java-hello"},
        {apps::Language::Python, "python-hello"},
        {apps::Language::Ruby, "ruby-hello"},
        {apps::Language::NodeJs, "nodejs-hello"},
    };
    const apps::AppProfile &base = apps::appByName(kBaseApp.at(lang));
    FunctionArtifacts &base_fn = lang_registry_.artifactsFor(base);

    std::unique_ptr<SandboxInstance> tmpl = bringUpTemplate(base_fn);
    machine_.ctx().stats().incr("catalyzer.lang_templates_built");
    auto &ref = *tmpl;
    lang_templates_.emplace(lang, std::move(tmpl));
    return ref;
}

void
CatalyzerRuntime::prepareTemplate(FunctionArtifacts &fn)
{
    ensureTemplate(fn);
}

void
CatalyzerRuntime::warmFuncImage(FunctionArtifacts &fn,
                                int training_requests,
                                double prep_fraction)
{
    auto &ctx = machine_.ctx();
    // Boot an instance and warm it with the user-provided training
    // requests (all offline).
    BootResult boot = bootRestore(fn, /*warm=*/false);
    SandboxInstance &inst = *boot.instance;
    inst.setPrepFraction(prep_fraction);
    for (int i = 0; i < training_requests; ++i)
        inst.invoke();
    inst.pretouchWorkingSet();

    // Re-checkpoint at the moved func-entry point.
    snapshot::GuestState state = inst.captureState();
    state.warmedPrepFraction = prep_fraction;
    snapshot::CheckpointEngine engine(ctx);
    fn.separatedImage = engine.capture(
        machine_.frames(), fn.app().name,
        snapshot::ImageFormat::SeparatedWellFormed, std::move(state));
    // The old Base-EPT serves the stale image; future boots remap.
    fn.sharedBase.reset();
    fn.firstRestoreDone = false;
    if (options_.remoteImages)
        images_.publish(fn.separatedImage);
    ctx.stats().incr("catalyzer.images_warmed");
}

void
CatalyzerRuntime::refreshTemplate(FunctionArtifacts &fn)
{
    // Sec. 6.8: periodically regenerating the template re-randomizes
    // the layout shared by sforked children.
    dropTemplate(fn.app().name);
    ensureTemplate(fn);
    machine_.ctx().stats().incr("catalyzer.template_refreshes");
}

void
CatalyzerRuntime::prepareLanguageTemplate(apps::Language lang)
{
    ensureLanguageTemplate(lang);
}

void
CatalyzerRuntime::dropTemplate(const std::string &function_name)
{
    templates_.erase(function_name);
}

SandboxInstance *
CatalyzerRuntime::templateFor(const std::string &function_name)
{
    auto it = templates_.find(function_name);
    return it == templates_.end() ? nullptr : it->second.get();
}

std::size_t
CatalyzerRuntime::templateMemoryBytes() const
{
    std::size_t bytes = 0;
    for (const auto &[name, tmpl] : templates_)
        bytes += tmpl->rssBytes();
    for (const auto &[lang, tmpl] : lang_templates_)
        bytes += tmpl->rssBytes();
    return bytes;
}

} // namespace catalyzer::core
