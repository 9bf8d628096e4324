/**
 * @file
 * Per-function FS server (the Gofer in gVisor terms).
 *
 * A sandbox never touches persistent storage directly; it holds read-only
 * descriptors granted by the server over an RPC channel, plus a small
 * number of read/write grants for log files (paper Sec. 4.2).
 */

#ifndef CATALYZER_VFS_FS_SERVER_H
#define CATALYZER_VFS_FS_SERVER_H

#include <string>

#include "sim/context.h"
#include "vfs/fd_table.h"
#include "vfs/inode_tree.h"

namespace catalyzer::vfs {

/**
 * Serves a function's real rootfs to its sandboxes.
 *
 * One server exists per function (not per instance); sforked children
 * keep using the parent's grants because they are read-only.
 */
class FsServer
{
  public:
    /**
     * @param ctx    Simulation context (costs are charged here).
     * @param rootfs The function's merged root filesystem.
     * @param name   Diagnostic label.
     */
    FsServer(sim::SimContext &ctx, InodeTree rootfs, std::string name);

    /**
     * Open @p path read-only on behalf of a sandbox: one Gofer RPC plus
     * a host open. Returns the entry to install in the sandbox fd table.
     * Missing paths are a user error (fatal in strict mode) — here we
     * return success=false so callers can surface ENOENT.
     */
    bool openReadOnly(const std::string &path, FdEntry *out);

    /**
     * Grant a read/write descriptor for a log file, creating it in the
     * rootfs if needed.
     */
    FdEntry grantLogFile(const std::string &path);

    const InodeTree &rootfs() const { return rootfs_; }
    const std::string &name() const { return name_; }

  private:
    /**
     * Charge one dup on the server's own fd table, lazily (Sec. 6.7):
     * the client gets an already-available fd and the dup runs off the
     * critical path.
     */
    void chargeDup();

    sim::SimContext &ctx_;
    InodeTree rootfs_;
    std::string name_;
    FdTable server_fds_;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_FS_SERVER_H
