/**
 * @file
 * A paged file over the IPC file-system server, with a client-side
 * page cache - the storage layer under MiniDb's B+tree, standing in
 * for sqlite3's pager. Every cache miss and every flush is a real
 * read/write RPC to the FS server, which is precisely the IPC the
 * paper's Figure 1 and Figure 8 measure.
 */

#ifndef XPC_APPS_MINIDB_PAGED_FILE_HH
#define XPC_APPS_MINIDB_PAGED_FILE_HH

#include <array>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>

#include "core/transport.hh"
#include "sim/stats.hh"

namespace xpc::apps {

constexpr uint64_t dbPageBytes = 4096;

/** One cached page. */
struct DbPage
{
    uint32_t pageNo = 0;
    bool dirty = false;
    std::array<uint8_t, dbPageBytes> data;
};

/** FS-backed paged file with a fixed-size page cache. */
class PagedFile
{
  public:
    /**
     * Open (creating if needed) @p path on the FS service.
     * @param cache_pages page-cache capacity
     */
    PagedFile(core::Transport &transport, hw::Core &core,
              kernel::Thread &client, core::ServiceId fs_svc,
              const std::string &path, uint32_t cache_pages);

    /** Fetch a page, reading through the FS on a miss. */
    DbPage &get(uint32_t page_no);

    /** Mark a page dirty. Fires the pre-image hook the first time a
     *  page is dirtied while a hook is installed (journaling). */
    void markDirty(uint32_t page_no);

    /** Write all dirty pages through to the FS server. */
    void flushDirty();

    /** Extend the file by one zeroed page. @return its number. */
    uint32_t appendPage();

    /** Attach to an existing file of @p n pages: subsequent get()
     *  calls read them through from the FS (reopen support). */
    void
    adoptPages(uint32_t n)
    {
        numPages = std::max(numPages, n);
    }

    /** Attach to the file's existing extent: stat it on the FS
     *  server and adopt every page already (even partially) written
     *  - the crash-restart reopen path. */
    void adoptExisting();

    uint32_t pageCount() const { return numPages; }

    /** Journaling hook: called with (pageNo, preImage) on first dirty. */
    std::function<void(uint32_t, const DbPage &)> preImageHook;

    /**
     * Prefer evicting clean pages over dirty ones (WAL discipline:
     * a dirty page written home before its commit record would break
     * the write-ahead invariant). Default off - the classic pager
     * evicts strictly by LRU, and the benches depend on that exact
     * write-back sequence.
     */
    bool preferCleanEviction = false;

    /** Dirty page numbers in first-dirtied order. */
    const std::vector<uint32_t> &dirtyPages() const { return dirtyList; }

    Counter cacheHits;
    Counter cacheMisses;
    Counter pageReads;
    Counter pageWrites;

  private:
    core::Transport &transport;
    hw::Core &core;
    kernel::Thread &client;
    core::ServiceId fsSvc;
    int64_t fd = -1;
    uint32_t numPages = 0;
    uint32_t capacity;
    /** Cached pages, least recently used first. */
    std::list<DbPage> pages;
    /** Page number -> its node in pages; looked up, never iterated. */
    std::unordered_map<uint32_t, std::list<DbPage>::iterator> index;
    std::vector<uint32_t> dirtyList;

    /** The cached page @p page_no, moved to most recently used. */
    DbPage *find(uint32_t page_no);
    /** Cache a new page @p page_no as the most recently used, in
     *  the victim's node when the cache is full: the caller fills
     *  every byte of its data. */
    DbPage &insert(uint32_t page_no);
    void writeThrough(DbPage &page);
    /** Write the victim home if dirty, unindex it, and return its
     *  node, moved to most recently used. */
    std::list<DbPage>::iterator evictOne();
};

} // namespace xpc::apps

#endif // XPC_APPS_MINIDB_PAGED_FILE_HH
