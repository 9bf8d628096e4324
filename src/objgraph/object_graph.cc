#include "objgraph/object_graph.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace catalyzer::objgraph {

const char *
objectKindName(ObjectKind kind)
{
    switch (kind) {
      case ObjectKind::Task: return "task";
      case ObjectKind::ThreadContext: return "thread_context";
      case ObjectKind::Mount: return "mount";
      case ObjectKind::Timer: return "timer";
      case ObjectKind::SessionList: return "session_list";
      case ObjectKind::FdTableEntry: return "fdtable_entry";
      case ObjectKind::MemoryRegion: return "memory_region";
      case ObjectKind::Misc: return "misc";
    }
    return "unknown";
}

GraphSpec
GraphSpec::scaledTo(std::size_t objects)
{
    GraphSpec base;
    const double factor = static_cast<double>(objects) /
                          static_cast<double>(base.totalObjects());
    auto scale = [factor](std::size_t v) {
        return static_cast<std::size_t>(std::llround(
            std::max(1.0, static_cast<double>(v) * factor)));
    };
    GraphSpec out;
    out.tasks = scale(base.tasks);
    out.threadContexts = scale(base.threadContexts);
    out.mounts = scale(base.mounts);
    out.timers = scale(base.timers);
    out.sessionLists = scale(base.sessionLists);
    out.fdTableEntries = scale(base.fdTableEntries);
    out.memoryRegions = scale(base.memoryRegions);
    // Put the remainder in misc so totals land close to the request.
    const std::size_t partial = out.tasks + out.threadContexts +
                                out.mounts + out.timers + out.sessionLists +
                                out.fdTableEntries + out.memoryRegions;
    out.miscObjects = objects > partial ? objects - partial : 1;
    return out;
}

void
ObjectGraph::detach()
{
    if (!objects_)
        objects_ = std::make_shared<std::vector<MetaObject>>();
    else if (objects_.use_count() > 1)
        objects_ = std::make_shared<std::vector<MetaObject>>(*objects_);
}

const std::vector<MetaObject> &
ObjectGraph::objects() const
{
    static const std::vector<MetaObject> kEmpty;
    return objects_ ? *objects_ : kEmpty;
}

std::uint64_t
ObjectGraph::addObject(ObjectKind kind, std::uint32_t payload_bytes,
                       std::vector<std::uint64_t> refs)
{
    const std::uint64_t id = objectCount() + 1;
    for (std::uint64_t ref : refs) {
        if (ref >= id)
            sim::panic("ObjectGraph::addObject: forward/self ref %llu",
                       static_cast<unsigned long long>(ref));
    }
    detach();
    objects_->push_back(
        MetaObject{id, kind, payload_bytes, std::move(refs)});
    return id;
}

ObjectGraph
ObjectGraph::fromObjects(std::vector<MetaObject> objects)
{
    for (std::size_t i = 0; i < objects.size(); ++i) {
        const MetaObject &obj = objects[i];
        if (obj.id != i + 1)
            sim::panic("ObjectGraph::fromObjects: non-dense id %llu at "
                       "index %zu",
                       static_cast<unsigned long long>(obj.id), i);
        for (std::uint64_t ref : obj.refs) {
            if (ref >= obj.id)
                sim::panic("ObjectGraph::fromObjects: forward/self ref "
                           "%llu",
                           static_cast<unsigned long long>(ref));
        }
    }
    ObjectGraph graph;
    if (!objects.empty())
        graph.objects_ =
            std::make_shared<std::vector<MetaObject>>(std::move(objects));
    return graph;
}

const MetaObject &
ObjectGraph::object(std::uint64_t id) const
{
    if (id == 0 || id > objectCount())
        sim::panic("ObjectGraph::object: bad id %llu",
                   static_cast<unsigned long long>(id));
    return (*objects_)[id - 1];
}

MetaObject &
ObjectGraph::mutableObject(std::uint64_t id)
{
    if (id == 0 || id > objectCount())
        sim::panic("ObjectGraph::mutableObject: bad id %llu",
                   static_cast<unsigned long long>(id));
    detach();
    return (*objects_)[id - 1];
}

std::size_t
ObjectGraph::pointerCount() const
{
    std::size_t n = 0;
    for (const auto &obj : objects()) {
        n += static_cast<std::size_t>(
            std::count_if(obj.refs.begin(), obj.refs.end(),
                          [](std::uint64_t r) { return r != 0; }));
    }
    return n;
}

std::size_t
ObjectGraph::payloadBytes() const
{
    std::size_t n = 0;
    for (const auto &obj : objects())
        n += obj.payloadBytes;
    return n;
}

bool
ObjectGraph::checkIntegrity() const
{
    for (const auto &obj : objects()) {
        for (std::uint64_t ref : obj.refs) {
            if (ref > objectCount())
                return false;
        }
    }
    return true;
}

bool
ObjectGraph::operator==(const ObjectGraph &other) const
{
    if (objects_ == other.objects_)
        return true; // shared storage, structurally equal by definition
    if (objectCount() != other.objectCount())
        return false;
    const auto &mine = objects();
    const auto &theirs = other.objects();
    for (std::size_t i = 0; i < mine.size(); ++i) {
        const auto &a = mine[i];
        const auto &b = theirs[i];
        if (a.id != b.id || a.kind != b.kind ||
            a.payloadBytes != b.payloadBytes || a.refs != b.refs) {
            return false;
        }
    }
    return true;
}

ObjectGraph
ObjectGraph::synthesize(sim::Rng &rng, const GraphSpec &spec)
{
    ObjectGraph graph;
    graph.detach();
    graph.objects_->reserve(spec.totalObjects());
    struct Batch
    {
        ObjectKind kind;
        std::size_t count;
    };
    const Batch batches[] = {
        {ObjectKind::Task, spec.tasks},
        {ObjectKind::ThreadContext, spec.threadContexts},
        {ObjectKind::Mount, spec.mounts},
        {ObjectKind::Timer, spec.timers},
        {ObjectKind::SessionList, spec.sessionLists},
        {ObjectKind::FdTableEntry, spec.fdTableEntries},
        {ObjectKind::MemoryRegion, spec.memoryRegions},
        {ObjectKind::Misc, spec.miscObjects},
    };
    for (const auto &batch : batches) {
        for (std::size_t i = 0; i < batch.count; ++i) {
            const auto payload = static_cast<std::uint32_t>(
                std::max(16.0, rng.exponential(spec.meanPayloadBytes)));
            std::vector<std::uint64_t> refs;
            const std::uint64_t next_id = graph.objectCount() + 1;
            if (next_id > 1 && rng.chance(spec.pointerBearingFraction)) {
                const auto nrefs = static_cast<std::size_t>(
                    1 + rng.uniformInt(static_cast<std::uint64_t>(
                            std::max(1.0, spec.meanRefsPerObject * 2 - 1))));
                refs.reserve(nrefs);
                for (std::size_t r = 0; r < nrefs; ++r)
                    refs.push_back(1 + rng.uniformInt(next_id - 1));
            }
            graph.addObject(batch.kind, payload, std::move(refs));
        }
    }
    return graph;
}

} // namespace catalyzer::objgraph
