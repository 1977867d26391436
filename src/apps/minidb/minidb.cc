#include "minidb.hh"

#include <cstring>

#include "services/fs_server.hh"
#include "services/journal.hh"
#include "sim/logging.hh"

namespace xpc::apps {

using services::FsServer;
namespace journal = services::journal;

namespace {

/** Rollback-journal header magic ("LNRJ" little-endian). */
constexpr uint64_t rollbackMagic = 0x4a524e4c;

/** Journal body (records/post-images) starts one page in. */
constexpr uint64_t journalBodyOffset = dbPageBytes;

} // namespace

MiniDb::MiniDb(core::Transport &tr, hw::Core &c, kernel::Thread &cl,
               core::ServiceId fs, const std::string &name,
               uint32_t cache_pages)
    : MiniDb(tr, c, cl, fs, name, MiniDbOptions{cache_pages})
{}

MiniDb::MiniDb(core::Transport &tr, hw::Core &c, kernel::Thread &cl,
               core::ServiceId fs, const std::string &name,
               const MiniDbOptions &options)
    : transport(tr), core(c), client(cl), fsSvc(fs),
      mode(options.journal)
{
    file = std::make_unique<PagedFile>(tr, c, cl, fs, "/" + name,
                                       options.cachePages);
    if (mode == JournalMode::Wal) {
        // Write-ahead ordering: never push a dirty page home ahead
        // of its commit record just to make cache room.
        file->preferCleanEviction = true;
    }
    if (options.createFresh) {
        btree = std::make_unique<BTree>(*file);
        btree->create();
        journalFd = FsServer::clientOpen(
            tr, c, cl, fs, "/" + name + "-journal", true);
        fatal_if(journalFd < 0, "cannot create the journal");
        // The tree header/root must be durable before first use.
        file->flushDirty();
        return;
    }
    // Attach (crash restart): adopt the durable extent, consume any
    // hot journal, and only then touch the tree.
    journalFd = FsServer::clientOpen(
        tr, c, cl, fs, "/" + name + "-journal", true);
    fatal_if(journalFd < 0, "cannot open the journal");
    file->adoptExisting();
    if (mode == JournalMode::Rollback)
        recoverRollback();
    else if (mode == JournalMode::Wal)
        recoverWal();
    btree = std::make_unique<BTree>(*file);
}

int64_t
MiniDb::fsWrite(int64_t fd, uint64_t off, const void *src,
                uint64_t len)
{
    return FsServer::clientWrite(transport, core, client, fsSvc, fd,
                                 off, src, len);
}

void
MiniDb::beginTxn()
{
    transactions.inc();
    journalBuf.clear();
    if (mode == JournalMode::Rollback) {
        file->preImageHook = [this](uint32_t page_no,
                                    const DbPage &pre) {
            journalAppend(page_no, pre);
        };
    }
    // Wal journals post-images at commit; None journals nothing.
}

void
MiniDb::journalAppend(uint32_t page_no, const DbPage &pre)
{
    journalPages.inc();
    // Buffer {pageNo, preimage} like sqlite's buffered journal I/O;
    // the bytes hit the FS in one sequential write at commit.
    size_t at = journalBuf.size();
    journalBuf.resize(at + 8 + dbPageBytes);
    std::memcpy(journalBuf.data() + at, &page_no, 4);
    std::memset(journalBuf.data() + at + 4, 0, 4);
    std::memcpy(journalBuf.data() + at + 8, pre.data.data(),
                dbPageBytes);
}

void
MiniDb::commitTxn()
{
    file->preImageHook = nullptr;
    if (file->dirtyPages().empty())
        return;

    if (mode == JournalMode::None) {
        // Crash-unsafe by design: pages go straight home.
        file->flushDirty();
        return;
    }

    if (mode == JournalMode::Wal) {
        // Post-images first, then the checksummed commit record (the
        // atomic point), then the pages home, then the record clear.
        // Recovery replays an intact record idempotently; anything
        // torn decodes invalid and the transaction never happened.
        journal::WalHeader hdr;
        hdr.seq = transactions.value();
        std::vector<uint8_t> body;
        for (uint32_t page_no : file->dirtyPages()) {
            journalPages.inc();
            DbPage &p = file->get(page_no);
            size_t at = body.size();
            body.resize(at + dbPageBytes);
            std::memcpy(body.data() + at, p.data.data(), dbPageBytes);
            hdr.entries.push_back(
                {page_no, xpc::crc32(p.data.data(), dbPageBytes)});
        }
        fsWrite(journalFd, journalBodyOffset, body.data(),
                body.size());
        std::vector<uint8_t> rec;
        hdr.encodeTo(&rec);
        fsWrite(journalFd, 0, rec.data(), rec.size());
        file->flushDirty();
        uint64_t zero[2] = {0, 0};
        fsWrite(journalFd, 0, zero, sizeof(zero));
        return;
    }

    // 1. Sequential journal write + header: the commit mark (one
    //    buffered write plus the header, as sqlite does per fsync).
    fsWrite(journalFd, journalBodyOffset, journalBuf.data(),
            journalBuf.size());
    uint64_t hdr[2] = {rollbackMagic,
                       journalBuf.size() / (8 + dbPageBytes)};
    fsWrite(journalFd, 0, hdr, sizeof(hdr));
    journalBuf.clear();
    // 2. Write the dirty pages home.
    file->flushDirty();
    // 3. Invalidate the journal (sqlite "delete"s it; zeroing the
    //    header is the journal_mode=PERSIST variant). This clear is
    //    the rollback commit point: a crash before it leaves a hot
    //    journal, and recovery rolls the transaction back.
    uint64_t zero[2] = {0, 0};
    fsWrite(journalFd, 0, zero, sizeof(zero));
}

void
MiniDb::installRecoveredPage(uint32_t page_no, const uint8_t *img)
{
    if (page_no >= file->pageCount())
        file->adoptPages(page_no + 1);
    DbPage &p = file->get(page_no);
    file->markDirty(page_no);
    std::memcpy(p.data.data(), img, dbPageBytes);
}

void
MiniDb::recoverRollback()
{
    uint64_t hdr[2] = {0, 0};
    FsServer::clientRead(transport, core, client, fsSvc, journalFd, 0,
                         hdr, sizeof(hdr));
    if (hdr[0] != rollbackMagic || hdr[1] == 0)
        return; // no hot journal: the last transaction committed
    // Hot journal: the crash hit between the journal commit mark and
    // the journal clear, so the home pages may be any prefix of the
    // transaction's writes. Undo: copy every pre-image back.
    recoveredOnOpen_ = true;
    std::vector<uint8_t> rec(8 + dbPageBytes);
    for (uint64_t i = 0; i < hdr[1]; i++) {
        int64_t r = FsServer::clientRead(
            transport, core, client, fsSvc, journalFd,
            journalBodyOffset + i * (8 + dbPageBytes), rec.data(),
            rec.size());
        if (r != int64_t(rec.size()))
            break; // torn body cannot happen after a valid header
        uint32_t page_no;
        std::memcpy(&page_no, rec.data(), 4);
        installRecoveredPage(page_no, rec.data() + 8);
    }
    file->flushDirty();
    uint64_t zero[2] = {0, 0};
    fsWrite(journalFd, 0, zero, sizeof(zero));
}

void
MiniDb::recoverWal()
{
    std::vector<uint8_t> hraw(dbPageBytes, 0);
    int64_t r = FsServer::clientRead(transport, core, client, fsSvc,
                                     journalFd, 0, hraw.data(),
                                     hraw.size());
    journal::WalHeader hdr;
    if (r <= 0 ||
        !journal::WalHeader::decode(hraw.data(), size_t(r), &hdr))
        return; // no intact commit record: nothing to redo
    // Verify every post-image before touching the database; a record
    // describing torn images is discarded whole.
    std::vector<uint8_t> body(hdr.entries.size() * dbPageBytes);
    bool intact = true;
    for (size_t i = 0; i < hdr.entries.size(); i++) {
        uint8_t *img = body.data() + i * dbPageBytes;
        int64_t got = FsServer::clientRead(
            transport, core, client, fsSvc, journalFd,
            journalBodyOffset + i * dbPageBytes, img, dbPageBytes);
        if (got != int64_t(dbPageBytes) ||
            !journal::walPayloadMatches(hdr.entries[i], img,
                                        dbPageBytes)) {
            intact = false;
            break;
        }
    }
    if (intact) {
        recoveredOnOpen_ = true;
        for (size_t i = 0; i < hdr.entries.size(); i++) {
            installRecoveredPage(hdr.entries[i].no,
                                 body.data() + i * dbPageBytes);
        }
        file->flushDirty();
    }
    // The record is consumed either way.
    uint64_t zero[2] = {0, 0};
    fsWrite(journalFd, 0, zero, sizeof(zero));
}

void
MiniDb::put(const std::string &key, const void *value, uint32_t len)
{
    core.spend(costs.readCompute);
    core.spend(costs.writeCompute);
    beginTxn();
    btree->put(BtKey::fromString(key), value, len);
    commitTxn();
}

void
MiniDb::lockProbe()
{
    // sqlite in rollback-journal mode takes a shared lock and checks
    // for a hot journal on every read transaction: two small file
    // operations through the FS server.
    uint64_t hdr[2];
    FsServer::clientRead(transport, core, client, fsSvc, journalFd, 0,
                         hdr, sizeof(hdr));
}

std::optional<std::vector<uint8_t>>
MiniDb::get(const std::string &key)
{
    core.spend(costs.readCompute);
    lockProbe();
    return btree->get(BtKey::fromString(key));
}

uint32_t
MiniDb::scan(const std::string &key, uint32_t limit)
{
    core.spend(costs.readCompute);
    lockProbe();
    uint64_t checksum = 0;
    uint32_t n = btree->scan(
        BtKey::fromString(key), limit,
        [&](const BtKey &, const uint8_t *val, uint32_t len) {
            core.spend(costs.scanPerRecord);
            // Touch the record like a row decoder would.
            for (uint32_t i = 0; i < len; i += 64)
                checksum += val[i];
        });
    (void)checksum;
    return n;
}

void
MiniDb::readModifyWrite(const std::string &key, uint8_t delta)
{
    auto value = get(key);
    if (!value)
        return;
    for (auto &b : *value)
        b = uint8_t(b + delta);
    put(key, value->data(), uint32_t(value->size()));
}

} // namespace xpc::apps
