#include "paged_file.hh"

#include <algorithm>
#include <cstring>

#include "services/fs_server.hh"
#include "sim/logging.hh"

namespace xpc::apps {

using services::FsServer;

PagedFile::PagedFile(core::Transport &tr, hw::Core &c,
                     kernel::Thread &cl, core::ServiceId fs,
                     const std::string &path, uint32_t cache_pages)
    : transport(tr), core(c), client(cl), fsSvc(fs),
      capacity(cache_pages)
{
    panic_if(cache_pages == 0, "page cache needs at least one page");
    fd = FsServer::clientOpen(transport, core, client, fsSvc, path,
                              true);
    fatal_if(fd < 0, "cannot open database file '%s'", path.c_str());
    // Databases are created fresh in every experiment; the page
    // count grows through appendPage().
    numPages = 0;
}

void
PagedFile::adoptExisting()
{
    int64_t bytes = FsServer::clientStat(transport, core, client,
                                         fsSvc, fd);
    if (bytes > 0) {
        adoptPages(uint32_t((uint64_t(bytes) + dbPageBytes - 1) /
                            dbPageBytes));
    }
}

DbPage *
PagedFile::find(uint32_t page_no)
{
    auto it = index.find(page_no);
    if (it == index.end())
        return nullptr;
    pages.splice(pages.end(), pages, it->second);
    return &*it->second;
}

DbPage &
PagedFile::insert(uint32_t page_no)
{
    auto node = pages.size() >= capacity ? evictOne()
                                         : pages.emplace(pages.end());
    index.emplace(page_no, node);
    node->pageNo = page_no;
    node->dirty = false;
    return *node;
}

void
PagedFile::writeThrough(DbPage &page)
{
    pageWrites.inc();
    int64_t r = FsServer::clientWrite(
        transport, core, client, fsSvc, fd,
        uint64_t(page.pageNo) * dbPageBytes, page.data.data(),
        dbPageBytes);
    panic_if(r != int64_t(dbPageBytes), "short database page write");
    page.dirty = false;
}

std::list<DbPage>::iterator
PagedFile::evictOne()
{
    auto victim = pages.begin();
    if (preferCleanEviction) {
        // WAL discipline: pick the LRU *clean* page when one exists;
        // only write a dirty page home early if everything is dirty.
        auto clean = std::find_if(
            pages.begin(), pages.end(),
            [](const DbPage &p) { return !p.dirty; });
        if (clean != pages.end())
            victim = clean;
    }
    if (victim->dirty)
        writeThrough(*victim);
    index.erase(victim->pageNo);
    // The node goes on as the most recently used page: insert()
    // refills it.
    pages.splice(pages.end(), pages, victim);
    return victim;
}

DbPage &
PagedFile::get(uint32_t page_no)
{
    panic_if(page_no >= numPages, "page %u beyond the file", page_no);
    if (DbPage *hit = find(page_no)) {
        cacheHits.inc();
        return *hit;
    }
    cacheMisses.inc();

    DbPage &p = insert(page_no);
    pageReads.inc();
    int64_t r = FsServer::clientRead(
        transport, core, client, fsSvc, fd,
        uint64_t(page_no) * dbPageBytes, p.data.data(), dbPageBytes);
    if (r < int64_t(dbPageBytes)) {
        // Sparse tail: unwritten bytes read as zero.
        std::memset(p.data.data() + (r > 0 ? r : 0), 0,
                    dbPageBytes - uint64_t(r > 0 ? r : 0));
    }
    return p;
}

void
PagedFile::markDirty(uint32_t page_no)
{
    DbPage *p = find(page_no);
    panic_if(!p, "markDirty on an uncached page %u", page_no);
    if (!p->dirty) {
        if (preImageHook) {
            // Capture the pre-image before anyone modifies it.
            // NOTE: callers must markDirty *before* writing.
            preImageHook(page_no, *p);
        }
        dirtyList.push_back(page_no);
    }
    p->dirty = true;
}

void
PagedFile::flushDirty()
{
    for (uint32_t page_no : dirtyList) {
        if (DbPage *p = find(page_no)) {
            if (p->dirty)
                writeThrough(*p);
        }
    }
    dirtyList.clear();
}

uint32_t
PagedFile::appendPage()
{
    uint32_t page_no = numPages++;
    // Materialize it in the cache as a zeroed page.
    insert(page_no).data.fill(0);
    return page_no;
}

} // namespace xpc::apps
