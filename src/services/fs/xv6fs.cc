#include "xv6fs.hh"

#include <algorithm>
#include <cstring>

#include "services/journal.hh"
#include "sim/logging.hh"

namespace xpc::services::fs {

namespace {

constexpr uint32_t inodesPerBlock =
    uint32_t(fsBlockBytes / sizeof(DiskInode));
constexpr uint32_t direntsPerBlock =
    uint32_t(fsBlockBytes / sizeof(Dirent));
constexpr uint32_t bitsPerBlock = uint32_t(fsBlockBytes * 8);

// The log's commit record is the shared checksummed WAL header
// (services/journal): block sb.logStart holds the encoded record,
// blocks sb.logStart+1.. hold the n logged images it describes.
static_assert(journal::WalHeader::encodedBytes(maxOpBlocks) <=
                  fsBlockBytes,
              "log commit record must fit one block");

} // namespace

// --------------------------------------------------------------------
// BufCache
// --------------------------------------------------------------------

BufCache::BufCache(uint32_t nbufs) : capacity(nbufs)
{
    panic_if(nbufs == 0, "buffer cache needs at least one buffer");
}

BufCache::Buf *
BufCache::find(uint32_t block_no)
{
    auto it = index.find(block_no);
    return it == index.end() ? nullptr : &*it->second;
}

BufCache::Buf &
BufCache::get(BlockIo &io, uint32_t block_no)
{
    if (Buf *b = find(block_no)) {
        hits.inc();
        b->lru = ++clock;
        return *b;
    }
    misses.inc();

    auto node = bufs.end();
    if (bufs.size() >= capacity) {
        // Evict the least recently used unpinned buffer, writing it
        // back if dirty.
        auto victim = bufs.end();
        for (auto it = bufs.begin(); it != bufs.end(); ++it) {
            if (it->pinned)
                continue;
            if (victim == bufs.end() || it->lru < victim->lru)
                victim = it;
        }
        if (victim != bufs.end()) {
            if (victim->dirty)
                io.write(victim->blockNo, victim->data.data());
            index.erase(victim->blockNo);
            // Its node becomes the new buffer, at the back: the list
            // stays in insertion order, flushAll's write order.
            bufs.splice(bufs.end(), bufs, victim);
            node = victim;
        }
        // All pinned: allow temporary growth past capacity.
    }
    if (node == bufs.end())
        node = bufs.emplace(bufs.end());

    Buf &b = *node;
    index.emplace(block_no, node);
    b.blockNo = block_no;
    b.dirty = false;
    b.lru = ++clock;
    io.read(block_no, b.data.data());
    return b;
}

void
BufCache::pin(uint32_t block_no, bool pinned)
{
    if (Buf *b = find(block_no))
        b->pinned = pinned;
}

void
BufCache::flushAll(BlockIo &io)
{
    for (auto &b : bufs) {
        if (b.dirty) {
            io.write(b.blockNo, b.data.data());
            b.dirty = false;
        }
    }
}

void
BufCache::invalidateAll()
{
    bufs.clear();
    index.clear();
}

// --------------------------------------------------------------------
// mkfs and mount
// --------------------------------------------------------------------

Xv6Fs::Xv6Fs() : fdTable(64) {}

void
Xv6Fs::mkfs(BlockIo &io, uint32_t total_blocks, uint32_t ninodes,
            uint32_t nlog)
{
    panic_if(nlog < maxOpBlocks + 1, "log too small");
    uint32_t ninodeblocks = (ninodes + inodesPerBlock - 1) /
                            inodesPerBlock;
    uint32_t nbitmap = (total_blocks + bitsPerBlock - 1) /
                       bitsPerBlock;

    SuperBlock sb{};
    sb.magic = fsMagic;
    sb.size = total_blocks;
    sb.ninodes = ninodes;
    sb.nlog = nlog;
    sb.logStart = 1;
    sb.inodeStart = sb.logStart + nlog;
    sb.bmapStart = sb.inodeStart + ninodeblocks;
    uint32_t data_start = sb.bmapStart + nbitmap;
    panic_if(data_start >= total_blocks, "disk too small for metadata");
    sb.nblocks = total_blocks - data_start;

    std::array<uint8_t, fsBlockBytes> zero{};
    // Superblock.
    std::array<uint8_t, fsBlockBytes> blk{};
    std::memcpy(blk.data(), &sb, sizeof(sb));
    io.write(0, blk.data());
    // Clean log header.
    io.write(sb.logStart, zero.data());
    // Zeroed inodes.
    for (uint32_t b = 0; b < ninodeblocks; b++)
        io.write(sb.inodeStart + b, zero.data());
    // Bitmap: metadata blocks (everything below data_start) are used.
    for (uint32_t b = 0; b < nbitmap; b++) {
        std::array<uint8_t, fsBlockBytes> bits{};
        for (uint32_t i = 0; i < bitsPerBlock; i++) {
            uint32_t block = b * bitsPerBlock + i;
            if (block < data_start)
                bits[i / 8] |= uint8_t(1 << (i % 8));
        }
        io.write(sb.bmapStart + b, bits.data());
    }

    // Root directory inode.
    DiskInode root{};
    root.type = uint16_t(InodeType::Dir);
    root.nlink = 1;
    root.size = 0;
    std::array<uint8_t, fsBlockBytes> iblk{};
    io.read(sb.inodeStart + rootIno / inodesPerBlock, iblk.data());
    std::memcpy(iblk.data() +
                    (rootIno % inodesPerBlock) * sizeof(DiskInode),
                &root, sizeof(root));
    io.write(sb.inodeStart + rootIno / inodesPerBlock, iblk.data());
}

int64_t
Xv6Fs::mount(BlockIo &device)
{
    io = &device;
    bcache.invalidateAll();
    std::array<uint8_t, fsBlockBytes> blk;
    io->read(0, blk.data());
    std::memcpy(&sb, blk.data(), sizeof(sb));
    if (sb.magic != fsMagic)
        return fsErrNotFound;

    // Crash recovery: replay a committed log. The commit record is
    // checksummed (services/journal), so a record the crash tore -
    // or one whose logged images never all reached the disk - is
    // detected and discarded instead of half-replayed: the
    // transaction it described simply never happened.
    io->read(sb.logStart, blk.data());
    journal::WalHeader hdr;
    bool committed = journal::WalHeader::decode(blk.data(), blk.size(),
                                               &hdr);
    if (committed) {
        std::vector<std::array<uint8_t, fsBlockBytes>> images(
            hdr.entries.size());
        for (size_t i = 0; i < hdr.entries.size(); i++) {
            io->read(uint32_t(sb.logStart + 1 + i), images[i].data());
            if (!journal::walPayloadMatches(hdr.entries[i],
                                            images[i].data(),
                                            fsBlockBytes)) {
                committed = false;
                break;
            }
        }
        if (committed) {
            // Idempotent redo: installing twice lands the same bytes.
            for (size_t i = 0; i < hdr.entries.size(); i++)
                io->write(hdr.entries[i].no, images[i].data());
        }
        // Either way the record is consumed: clear it.
        blk.fill(0);
        io->write(sb.logStart, blk.data());
    }
    recovered = committed;
    return fsOk;
}

// --------------------------------------------------------------------
// The log
// --------------------------------------------------------------------

void
Xv6Fs::beginOp()
{
    panic_if(inOp, "nested FS transactions are not supported");
    inOp = true;
    dirtyBlocks.clear();
    transactions.inc();
}

void
Xv6Fs::logWrite(uint32_t block_no)
{
    panic_if(!inOp, "logWrite outside a transaction");
    // Absorption: a block dirtied twice is logged once.
    if (std::find(dirtyBlocks.begin(), dirtyBlocks.end(), block_no) ==
        dirtyBlocks.end()) {
        panic_if(dirtyBlocks.size() >= maxOpBlocks,
                 "transaction exceeds the log (%u blocks)",
                 unsigned(maxOpBlocks));
        dirtyBlocks.push_back(block_no);
        bcache.pin(block_no, true);
        logWrites.inc();
    }
}

void
Xv6Fs::endOp()
{
    panic_if(!inOp, "endOp outside a transaction");
    inOp = false;
    if (dirtyBlocks.empty())
        return;

    // 1. Copy dirty blocks into the on-disk log, checksumming each
    //    image into the commit record as it goes out.
    journal::WalHeader hdr;
    hdr.seq = transactions.value();
    for (size_t i = 0; i < dirtyBlocks.size(); i++) {
        BufCache::Buf &b = bread(dirtyBlocks[i]);
        io->write(uint32_t(sb.logStart + 1 + i), b.data.data());
        hdr.entries.push_back(
            {dirtyBlocks[i], xpc::crc32(b.data.data(), fsBlockBytes)});
    }
    // 2. Commit: write the checksummed record. The atomic point - a
    //    crash before this write leaves an undecodable record and the
    //    transaction never happened; after it, recovery redoes it.
    std::array<uint8_t, fsBlockBytes> blk{};
    std::vector<uint8_t> rec;
    hdr.encodeTo(&rec);
    std::memcpy(blk.data(), rec.data(), rec.size());
    io->write(sb.logStart, blk.data());
    // 3. Install to home locations.
    installLog(false);
    // 4. Clear the record.
    blk.fill(0);
    io->write(sb.logStart, blk.data());
    for (uint32_t block_no : dirtyBlocks)
        bcache.pin(block_no, false);
    dirtyBlocks.clear();
}

void
Xv6Fs::installLog(bool from_recovery)
{
    (void)from_recovery;
    for (uint32_t block_no : dirtyBlocks) {
        BufCache::Buf &b = bread(block_no);
        io->write(block_no, b.data.data());
        b.dirty = false;
    }
}

// --------------------------------------------------------------------
// Low-level allocation
// --------------------------------------------------------------------

BufCache::Buf &
Xv6Fs::bread(uint32_t block_no)
{
    panic_if(!io, "file system not mounted");
    return bcache.get(*io, block_no);
}

uint32_t
Xv6Fs::balloc()
{
    for (uint32_t b = 0; b < sb.size; b += bitsPerBlock) {
        uint32_t bmap_block = sb.bmapStart + b / bitsPerBlock;
        BufCache::Buf &buf = bread(bmap_block);
        for (uint32_t i = 0; i < bitsPerBlock && b + i < sb.size; i++) {
            uint8_t mask = uint8_t(1 << (i % 8));
            if (!(buf.data[i / 8] & mask)) {
                buf.data[i / 8] |= mask;
                buf.dirty = true;
                logWrite(bmap_block);
                // Fresh blocks are zeroed.
                BufCache::Buf &nb = bread(b + i);
                nb.data.fill(0);
                nb.dirty = true;
                logWrite(b + i);
                return b + i;
            }
        }
    }
    return 0; // no space
}

void
Xv6Fs::bfree(uint32_t block_no)
{
    uint32_t bmap_block = sb.bmapStart + block_no / bitsPerBlock;
    BufCache::Buf &buf = bread(bmap_block);
    uint32_t i = block_no % bitsPerBlock;
    uint8_t mask = uint8_t(1 << (i % 8));
    if (!(buf.data[i / 8] & mask)) {
        // An already-free bit here means the bitmap came off a
        // faulted disk read (zeros). Leak the block instead of
        // taking the whole server down; the supervisor will rebuild
        // the volume when the device is restarted.
        leakedBlocks.inc();
        return;
    }
    buf.data[i / 8] &= uint8_t(~mask);
    buf.dirty = true;
    logWrite(bmap_block);
}

DiskInode
Xv6Fs::readInode(uint32_t inum)
{
    panic_if(inum >= sb.ninodes, "inode %u out of range", inum);
    BufCache::Buf &b = bread(sb.inodeStart + inum / inodesPerBlock);
    DiskInode ino;
    std::memcpy(&ino,
                b.data.data() +
                    (inum % inodesPerBlock) * sizeof(DiskInode),
                sizeof(ino));
    return ino;
}

void
Xv6Fs::writeInode(uint32_t inum, const DiskInode &ino)
{
    uint32_t block = sb.inodeStart + inum / inodesPerBlock;
    BufCache::Buf &b = bread(block);
    std::memcpy(b.data.data() +
                    (inum % inodesPerBlock) * sizeof(DiskInode),
                &ino, sizeof(ino));
    b.dirty = true;
    logWrite(block);
}

uint32_t
Xv6Fs::ialloc(InodeType type)
{
    for (uint32_t inum = 1; inum < sb.ninodes; inum++) {
        DiskInode ino = readInode(inum);
        if (ino.type == uint16_t(InodeType::Free)) {
            DiskInode fresh{};
            fresh.type = uint16_t(type);
            fresh.nlink = 1;
            writeInode(inum, fresh);
            return inum;
        }
    }
    return 0;
}

uint32_t
Xv6Fs::bmap(uint32_t inum, DiskInode &ino, uint32_t bn, bool alloc)
{
    if (bn < ndirect) {
        if (ino.addrs[bn] == 0 && alloc) {
            ino.addrs[bn] = balloc();
            writeInode(inum, ino);
        }
        return ino.addrs[bn];
    }
    bn -= ndirect;
    panic_if(bn >= nindirect, "file block %u beyond maximum size",
             bn + ndirect);
    if (ino.addrs[ndirect] == 0) {
        if (!alloc)
            return 0;
        ino.addrs[ndirect] = balloc();
        writeInode(inum, ino);
    }
    uint32_t iblock = ino.addrs[ndirect];
    BufCache::Buf &b = bread(iblock);
    uint32_t addr;
    std::memcpy(&addr, b.data.data() + bn * 4, 4);
    if (addr == 0 && alloc) {
        addr = balloc();
        BufCache::Buf &b2 = bread(iblock);
        std::memcpy(b2.data.data() + bn * 4, &addr, 4);
        b2.dirty = true;
        logWrite(iblock);
    }
    return addr;
}

void
Xv6Fs::itrunc(uint32_t inum, DiskInode &ino)
{
    for (uint32_t i = 0; i < ndirect; i++) {
        if (ino.addrs[i]) {
            bfree(ino.addrs[i]);
            ino.addrs[i] = 0;
        }
    }
    if (ino.addrs[ndirect]) {
        BufCache::Buf &b = bread(ino.addrs[ndirect]);
        for (uint32_t i = 0; i < nindirect; i++) {
            uint32_t addr;
            std::memcpy(&addr, b.data.data() + i * 4, 4);
            if (addr)
                bfree(addr);
        }
        bfree(ino.addrs[ndirect]);
        ino.addrs[ndirect] = 0;
    }
    ino.size = 0;
    writeInode(inum, ino);
}

int64_t
Xv6Fs::readi(uint32_t inum, uint64_t off, void *dst, uint64_t len)
{
    DiskInode ino = readInode(inum);
    if (off >= ino.size)
        return 0;
    len = std::min<uint64_t>(len, ino.size - off);
    auto *out = static_cast<uint8_t *>(dst);
    uint64_t done = 0;
    while (done < len) {
        uint32_t bn = uint32_t((off + done) / fsBlockBytes);
        uint64_t boff = (off + done) % fsBlockBytes;
        uint64_t chunk = std::min<uint64_t>(len - done,
                                            fsBlockBytes - boff);
        uint32_t addr = bmap(inum, ino, bn, false);
        if (addr == 0) {
            std::memset(out + done, 0, chunk); // hole
        } else {
            BufCache::Buf &b = bread(addr);
            std::memcpy(out + done, b.data.data() + boff, chunk);
        }
        done += chunk;
    }
    return int64_t(done);
}

int64_t
Xv6Fs::writei(uint32_t inum, uint64_t off, const void *src,
              uint64_t len)
{
    DiskInode ino = readInode(inum);
    auto *in = static_cast<const uint8_t *>(src);
    uint64_t done = 0;
    while (done < len) {
        uint32_t bn = uint32_t((off + done) / fsBlockBytes);
        uint64_t boff = (off + done) % fsBlockBytes;
        uint64_t chunk = std::min<uint64_t>(len - done,
                                            fsBlockBytes - boff);
        uint32_t addr = bmap(inum, ino, bn, true);
        if (addr == 0)
            return done > 0 ? int64_t(done) : fsErrNoSpace;
        BufCache::Buf &b = bread(addr);
        std::memcpy(b.data.data() + boff, in + done, chunk);
        b.dirty = true;
        logWrite(addr);
        done += chunk;
    }
    if (off + len > ino.size) {
        // Re-read: bmap may have updated the inode via writeInode.
        ino = readInode(inum);
        ino.size = uint32_t(off + len);
        writeInode(inum, ino);
    }
    return int64_t(done);
}

// --------------------------------------------------------------------
// Directories and paths
// --------------------------------------------------------------------

std::vector<std::string>
Xv6Fs::splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty()) {
                parts.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

int64_t
Xv6Fs::dirLookup(uint32_t dir_inum, const std::string &name)
{
    DiskInode dir = readInode(dir_inum);
    if (dir.type != uint16_t(InodeType::Dir))
        return fsErrNotDir;
    for (uint64_t off = 0; off < dir.size; off += sizeof(Dirent)) {
        Dirent de;
        readi(dir_inum, off, &de, sizeof(de));
        if (de.inum != 0 &&
            std::strncmp(de.name, name.c_str(), dirNameLen) == 0) {
            return de.inum;
        }
    }
    return fsErrNotFound;
}

int64_t
Xv6Fs::dirLink(uint32_t dir_inum, const std::string &name,
               uint32_t inum)
{
    if (name.size() >= dirNameLen)
        return fsErrNameTooLong;
    if (dirLookup(dir_inum, name) >= 0)
        return fsErrExists;

    DiskInode dir = readInode(dir_inum);
    Dirent de{};
    uint64_t off = 0;
    for (; off < dir.size; off += sizeof(Dirent)) {
        readi(dir_inum, off, &de, sizeof(de));
        if (de.inum == 0)
            break;
    }
    std::memset(&de, 0, sizeof(de));
    de.inum = inum;
    std::strncpy(de.name, name.c_str(), dirNameLen - 1);
    int64_t r = writei(dir_inum, off, &de, sizeof(de));
    return r == sizeof(de) ? fsOk : r;
}

int64_t
Xv6Fs::dirUnlink(uint32_t dir_inum, const std::string &name)
{
    DiskInode dir = readInode(dir_inum);
    for (uint64_t off = 0; off < dir.size; off += sizeof(Dirent)) {
        Dirent de;
        readi(dir_inum, off, &de, sizeof(de));
        if (de.inum != 0 &&
            std::strncmp(de.name, name.c_str(), dirNameLen) == 0) {
            std::memset(&de, 0, sizeof(de));
            writei(dir_inum, off, &de, sizeof(de));
            return fsOk;
        }
    }
    return fsErrNotFound;
}

bool
Xv6Fs::dirEmpty(uint32_t dir_inum)
{
    DiskInode dir = readInode(dir_inum);
    for (uint64_t off = 0; off < dir.size; off += sizeof(Dirent)) {
        Dirent de;
        readi(dir_inum, off, &de, sizeof(de));
        if (de.inum != 0)
            return false;
    }
    return true;
}

int64_t
Xv6Fs::namei(const std::string &path, bool parent, std::string *last)
{
    std::vector<std::string> parts = splitPath(path);
    if (parent) {
        if (parts.empty())
            return fsErrNotFound;
        if (last)
            *last = parts.back();
        parts.pop_back();
    }
    uint32_t inum = rootIno;
    for (const std::string &name : parts) {
        int64_t next = dirLookup(inum, name);
        if (next < 0)
            return next;
        inum = uint32_t(next);
    }
    return inum;
}

// --------------------------------------------------------------------
// Public file API
// --------------------------------------------------------------------

int64_t
Xv6Fs::open(const std::string &path, bool create)
{
    int64_t inum = namei(path, false, nullptr);
    if (inum < 0) {
        if (!create)
            return inum;
        std::string name;
        int64_t dir = namei(path, true, &name);
        if (dir < 0)
            return dir;
        beginOp();
        uint32_t fresh = ialloc(InodeType::File);
        if (fresh == 0) {
            endOp();
            return fsErrNoSpace;
        }
        int64_t r = dirLink(uint32_t(dir), name, fresh);
        endOp();
        if (r < 0)
            return r;
        inum = fresh;
    } else {
        DiskInode ino = readInode(uint32_t(inum));
        if (ino.type == uint16_t(InodeType::Dir))
            return fsErrIsDir;
    }

    for (size_t fd = 0; fd < fdTable.size(); fd++) {
        if (!fdTable[fd].used) {
            fdTable[fd] = OpenFile{true, uint32_t(inum)};
            return int64_t(fd);
        }
    }
    return fsErrNoSpace;
}

int64_t
Xv6Fs::pread(int64_t fd, uint64_t off, void *dst, uint64_t len)
{
    if (fd < 0 || size_t(fd) >= fdTable.size() || !fdTable[fd].used)
        return fsErrBadFd;
    return readi(fdTable[fd].inum, off, dst, len);
}

int64_t
Xv6Fs::pwrite(int64_t fd, uint64_t off, const void *src, uint64_t len)
{
    if (fd < 0 || size_t(fd) >= fdTable.size() || !fdTable[fd].used)
        return fsErrBadFd;
    auto *in = static_cast<const uint8_t *>(src);
    // Split into transactions that fit the log, as xv6's sys_write
    // does for large writes.
    uint64_t max_bytes = uint64_t(maxOpBlocks - 8) * fsBlockBytes;
    uint64_t done = 0;
    while (done < len) {
        uint64_t chunk = std::min(len - done, max_bytes);
        beginOp();
        int64_t r = writei(fdTable[fd].inum, off + done, in + done,
                           chunk);
        endOp();
        if (r < 0)
            return done > 0 ? int64_t(done) : r;
        done += uint64_t(r);
        if (uint64_t(r) < chunk)
            break;
    }
    return int64_t(done);
}

int64_t
Xv6Fs::close(int64_t fd)
{
    if (fd < 0 || size_t(fd) >= fdTable.size() || !fdTable[fd].used)
        return fsErrBadFd;
    fdTable[fd].used = false;
    return fsOk;
}

int64_t
Xv6Fs::fileSize(int64_t fd)
{
    if (fd < 0 || size_t(fd) >= fdTable.size() || !fdTable[fd].used)
        return fsErrBadFd;
    return readInode(fdTable[fd].inum).size;
}

int64_t
Xv6Fs::unlink(const std::string &path)
{
    std::string name;
    int64_t dir = namei(path, true, &name);
    if (dir < 0)
        return dir;
    int64_t inum = dirLookup(uint32_t(dir), name);
    if (inum < 0)
        return inum;

    DiskInode ino = readInode(uint32_t(inum));
    if (ino.type == uint16_t(InodeType::Dir) &&
        !dirEmpty(uint32_t(inum))) {
        return fsErrNotEmpty;
    }

    beginOp();
    dirUnlink(uint32_t(dir), name);
    ino.nlink--;
    if (ino.nlink == 0) {
        itrunc(uint32_t(inum), ino);
        ino.type = uint16_t(InodeType::Free);
    }
    writeInode(uint32_t(inum), ino);
    endOp();
    return fsOk;
}

int64_t
Xv6Fs::mkdir(const std::string &path)
{
    std::string name;
    int64_t dir = namei(path, true, &name);
    if (dir < 0)
        return dir;
    if (dirLookup(uint32_t(dir), name) >= 0)
        return fsErrExists;
    beginOp();
    uint32_t fresh = ialloc(InodeType::Dir);
    if (fresh == 0) {
        endOp();
        return fsErrNoSpace;
    }
    int64_t r = dirLink(uint32_t(dir), name, fresh);
    endOp();
    return r;
}

void
Xv6Fs::sync()
{
    panic_if(!io, "file system not mounted");
    bcache.flushAll(*io);
}

} // namespace xpc::services::fs
