/**
 * @file
 * Guest-kernel metadata object graph.
 *
 * A running gVisor-style sandbox holds tens of thousands of interlinked
 * kernel objects (tasks, mounts, timers, session lists, ...). Checkpoint
 * serializes this graph; restore must rebuild it. The paper measures
 * 37,838 objects for the SPECjbb sandbox (Sec. 2.2) and makes their
 * one-by-one deserialization the dominant restore cost that separated
 * state recovery removes.
 */

#ifndef CATALYZER_OBJGRAPH_OBJECT_GRAPH_H
#define CATALYZER_OBJGRAPH_OBJECT_GRAPH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace catalyzer::objgraph {

/** Guest-kernel object categories (the paper's examples, Sec. 2.2). */
enum class ObjectKind : std::uint8_t
{
    Task,
    ThreadContext,
    Mount,
    Timer,
    SessionList,
    FdTableEntry,
    MemoryRegion,
    Misc,
};

const char *objectKindName(ObjectKind kind);

/** One metadata object. id is 1-based; 0 means "null pointer". */
struct MetaObject
{
    std::uint64_t id = 0;
    ObjectKind kind = ObjectKind::Misc;
    /** Serialized payload size excluding pointer slots. */
    std::uint32_t payloadBytes = 0;
    /** Outgoing references (object ids; 0 entries are null slots). */
    std::vector<std::uint64_t> refs;
};

/** Shape parameters for synthesizing a sandbox's kernel state. */
struct GraphSpec
{
    std::size_t tasks = 8;
    std::size_t threadContexts = 16;
    std::size_t mounts = 24;
    std::size_t timers = 32;
    std::size_t sessionLists = 8;
    std::size_t fdTableEntries = 64;
    std::size_t memoryRegions = 48;
    std::size_t miscObjects = 800;

    /** Fraction of objects that carry outgoing pointers. */
    double pointerBearingFraction = 0.13;

    std::size_t
    totalObjects() const
    {
        return tasks + threadContexts + mounts + timers + sessionLists +
               fdTableEntries + memoryRegions + miscObjects;
    }

    /** Scale every category so the total is roughly @p objects. */
    static GraphSpec scaledTo(std::size_t objects);
};

/**
 * The object graph itself. Objects are stored in id order; references
 * always point at already-created objects (the graph is a DAG plus
 * explicit back-links are not needed for the reproduction).
 *
 * Graphs share their object storage copy-on-write: copying a graph
 * (e.g. handing the template's kernel state to every sfork'd instance)
 * aliases one immutable vector, and the first mutation through
 * addObject()/mutableObject() detaches a private copy. This mirrors the
 * paper's separated state design, where instances reuse immutable
 * kernel metadata instead of deserializing their own copy.
 */
class ObjectGraph
{
  public:
    /** Add an object; returns its id. Refs must name existing ids or 0. */
    std::uint64_t addObject(ObjectKind kind, std::uint32_t payload_bytes,
                            std::vector<std::uint64_t> refs);

    const MetaObject &object(std::uint64_t id) const;
    MetaObject &mutableObject(std::uint64_t id);

    std::size_t objectCount() const
    {
        return objects_ ? objects_->size() : 0;
    }

    /** Total non-null outgoing references. */
    std::size_t pointerCount() const;

    /** Sum of payload bytes. */
    std::size_t payloadBytes() const;

    /** All objects in id order. */
    const std::vector<MetaObject> &objects() const;

    /** Verify every reference resolves; returns false on dangling ids. */
    bool checkIntegrity() const;

    /** Structural equality (used to validate restore round trips). */
    bool operator==(const ObjectGraph &other) const;

    /** True when both graphs alias one non-empty object storage. */
    bool
    sharesStorageWith(const ObjectGraph &other) const
    {
        return objects_ && objects_ == other.objects_;
    }

    /** Synthesize a graph with the given shape, deterministically. */
    static ObjectGraph synthesize(sim::Rng &rng, const GraphSpec &spec);

  private:
    /** Clone the shared storage if any other graph aliases it. */
    void detach();

    /** Shared-immutable object storage; null means empty. */
    std::shared_ptr<std::vector<MetaObject>> objects_;
};

} // namespace catalyzer::objgraph

#endif // CATALYZER_OBJGRAPH_OBJECT_GRAPH_H
