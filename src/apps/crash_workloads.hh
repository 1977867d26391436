/**
 * @file
 * Crashable workloads for the systematic crash-point explorer
 * (sim/explorer): each factory builds a full simulated machine -
 * block device (the durable medium), FS server, client - runs a
 * write workload under enumerable crash sites, and knows how to
 * restart + journal-recover the stack and verify its consistency
 * invariants after any crash.
 *
 * The crash model is a power cut: when a site fires, the block
 * device starts suppressing durable writes, freezing the disk at the
 * exact write prefix. recoverAndVerify() then discards the volatile
 * half (the FS server process and the client's database object),
 * heals through the Supervisor - whose recovery hook replays the
 * journals before the fresh instance is re-registered - and checks
 * that committed data is intact, uncommitted data is absent, and a
 * fig07-style workload still completes.
 */

#ifndef XPC_APPS_CRASH_WORKLOADS_HH
#define XPC_APPS_CRASH_WORKLOADS_HH

#include "apps/minidb/minidb.hh"
#include "sim/explorer.hh"

namespace xpc::apps {

/**
 * MiniDb over FS over the block device, journaled by @p journal. The
 * workload pre-populates four records (outside the fault space), then
 * updates every one per generation; the invariant is per-key
 * atomicity: acknowledged puts read back exactly, the single
 * in-flight put reads back as either its old or its new value, never
 * a mix. Crash-safe in Rollback and Wal modes; in None mode the
 * explorer will find torn transactions (which is the point).
 */
sim::CrashWorkloadFactory
makeMiniDbCrashWorkload(JournalMode journal);

/**
 * Raw FS workload: whole-file generation rewrites, each one xv6fs
 * log transaction. The invariant is per-file atomicity: every file
 * reads back as entirely one generation - acknowledged writes as
 * theirs, the in-flight write as old-or-new - because the FS log
 * makes multi-block transactions all-or-nothing.
 */
sim::CrashWorkloadFactory
makeXv6FsCrashWorkload(uint32_t files = 3,
                       uint32_t blocks_per_file = 2);

/**
 * Deliberately crash-UNSAFE workload (journal None): records are
 * updated in pairs that the application wants atomic, but nothing
 * makes them so. Crashes between the two home writes leave a torn
 * pair, which verification reports as a graceful one-line failure -
 * the genuinely failing subject the shrinker needs.
 */
sim::CrashWorkloadFactory makeTornPairCrashWorkload(uint32_t pairs = 3);

} // namespace xpc::apps

#endif // XPC_APPS_CRASH_WORKLOADS_HH
