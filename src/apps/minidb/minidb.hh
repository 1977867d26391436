/**
 * @file
 * MiniDb: the embedded, journaled relational-style store standing in
 * for Sqlite3 in the paper's Figure 1 / Figure 8 experiments. It
 * lives in the client process, keeps its table in a B+tree over a
 * paged database file on the FS server, and wraps every mutation in
 * a rollback-journal transaction (journal pre-images, header commit,
 * page write-back, header clear - sqlite's classic journal mode),
 * all through real IPC.
 */

#ifndef XPC_APPS_MINIDB_MINIDB_HH
#define XPC_APPS_MINIDB_MINIDB_HH

#include <memory>
#include <optional>
#include <string>

#include "apps/minidb/btree.hh"

namespace xpc::apps {

/** Compute-cost model of the query layer (parse/plan/execute). */
struct MiniDbCosts
{
    /** Per-point-query compute (sqlite parse + btree walk logic). */
    static constexpr Cycles readCompute{14000};
    /** Per-update compute on top of the read path. */
    static constexpr Cycles writeCompute{140000};
    /** Per-record compute during scans. */
    static constexpr Cycles scanPerRecord{2000};
};

/** How mutations are made crash-safe. */
enum class JournalMode : uint8_t
{
    /**
     * sqlite's classic rollback journal (the default): pre-images,
     * header commit, page write-back, header clear. The commit point
     * is the header *clear*; recovery rolls a hot journal back.
     */
    Rollback,
    /**
     * Write-ahead redo log through the checksummed commit codec
     * (services/journal): post-images, commit record, page
     * write-back, record clear. The commit point is the record
     * *write*; recovery replays an intact record idempotently.
     */
    Wal,
    /** No journal at all - deliberately crash-UNSAFE. Exists so the
     *  crash explorer's shrinker has a genuinely failing subject. */
    None,
};

/** Open-time knobs (the plain constructor = fresh + Rollback). */
struct MiniDbOptions
{
    uint32_t cachePages = 64;
    JournalMode journal = JournalMode::Rollback;
    /** false: attach to an existing database instead of formatting,
     *  running journal recovery before the first tree access (the
     *  crash-restart path). */
    bool createFresh = true;
};

/** The database. */
class MiniDb
{
  public:
    /**
     * Create (or overwrite) database @p name on the FS service.
     * @param cache_pages sqlite-style page cache capacity
     */
    MiniDb(core::Transport &transport, hw::Core &core,
           kernel::Thread &client, core::ServiceId fs_svc,
           const std::string &name, uint32_t cache_pages = 64);

    /** Full-control variant: journal mode and create-vs-attach. */
    MiniDb(core::Transport &transport, hw::Core &core,
           kernel::Thread &client, core::ServiceId fs_svc,
           const std::string &name, const MiniDbOptions &options);

    /** True when attaching found (and consumed) a hot journal. */
    bool recoveredOnOpen() const { return recoveredOnOpen_; }

    MiniDbCosts costs;

    /** Insert or update one record (journaled transaction). */
    void put(const std::string &key, const void *value, uint32_t len);

    /** Point lookup. */
    std::optional<std::vector<uint8_t>> get(const std::string &key);

    /** Range scan of up to @p limit records from @p key. */
    uint32_t scan(const std::string &key, uint32_t limit);

    /** Read-modify-write (YCSB-F's workhorse). */
    void readModifyWrite(const std::string &key, uint8_t delta);

    BTree &tree() { return *btree; }
    PagedFile &pager() { return *file; }

    Counter transactions;
    Counter journalPages;

  private:
    core::Transport &transport;
    hw::Core &core;
    kernel::Thread &client;
    core::ServiceId fsSvc;
    std::unique_ptr<PagedFile> file;
    std::unique_ptr<BTree> btree;
    JournalMode mode = JournalMode::Rollback;
    bool recoveredOnOpen_ = false;
    int64_t journalFd = -1;
    /** Buffered journal records of the open transaction. */
    std::vector<uint8_t> journalBuf;

    void lockProbe();
    void beginTxn();
    void commitTxn();
    void journalAppend(uint32_t page_no, const DbPage &pre);
    void recoverRollback();
    void recoverWal();
    void installRecoveredPage(uint32_t page_no, const uint8_t *img);
    int64_t fsWrite(int64_t fd, uint64_t off, const void *src,
                    uint64_t len);
};

} // namespace xpc::apps

#endif // XPC_APPS_MINIDB_MINIDB_HH
