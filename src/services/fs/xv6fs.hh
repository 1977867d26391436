/**
 * @file
 * A log-based file system in the xv6/FSCQ lineage (the paper ports
 * xv6fs from FSCQ and runs it over a ram-disk server).
 *
 * On-disk layout:
 *   [ super | log header + log | inodes | free bitmap | data ]
 *
 * Every mutating operation runs inside a transaction: modified
 * blocks are first written to the on-disk log, the log header commit
 * is the atomic point, then blocks are installed in their home
 * locations and the header is cleared. Recovery replays a committed
 * log, so a crash at any block-write boundary leaves the file system
 * consistent (property-tested).
 *
 * Disk access goes through the abstract BlockIo, which in the full
 * system is IPC to the BlockDeviceServer - that is exactly the
 * traffic the paper's Figure 7 measures.
 */

#ifndef XPC_SERVICES_FS_XV6FS_HH
#define XPC_SERVICES_FS_XV6FS_HH

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"

namespace xpc::services::fs {

constexpr uint64_t fsBlockBytes = 4096;
constexpr uint32_t ndirect = 12;
constexpr uint32_t nindirect = fsBlockBytes / 4;
constexpr uint32_t rootIno = 1;
constexpr uint32_t fsMagic = 0x10203040;
/** Blocks one transaction may dirty (bounded by the log size). */
constexpr uint32_t maxOpBlocks = 48;
constexpr uint32_t dirNameLen = 28;

/** File type stored in an inode. */
enum class InodeType : uint16_t { Free = 0, Dir = 1, File = 2 };

/** On-disk superblock (block 0). */
struct SuperBlock
{
    uint32_t magic;
    uint32_t size;       ///< total blocks
    uint32_t nblocks;    ///< data blocks
    uint32_t ninodes;
    uint32_t nlog;
    uint32_t logStart;
    uint32_t inodeStart;
    uint32_t bmapStart;
};

/** On-disk inode. */
struct DiskInode
{
    uint16_t type;
    uint16_t nlink;
    uint32_t size;
    uint32_t addrs[ndirect + 1]; ///< direct + one indirect
};

/** Directory entry. */
struct Dirent
{
    uint32_t inum;
    char name[dirNameLen];
};

/** Abstract block device (IPC-backed in the real system). */
class BlockIo
{
  public:
    virtual ~BlockIo() = default;
    /** Fill all fsBlockBytes at @p dst, zeros where the block cannot
     *  be read: BufCache reuses an evicted buffer without clearing
     *  it first. */
    virtual void read(uint32_t block_no, void *dst) = 0;
    virtual void write(uint32_t block_no, const void *src) = 0;
};

/** Write-back buffer cache over a BlockIo (xv6's bcache). */
class BufCache
{
  public:
    explicit BufCache(uint32_t nbufs = 64);

    struct Buf
    {
        uint32_t blockNo = 0;
        bool dirty = false;
        /** Pinned buffers (in-transaction) are never evicted, so no
         *  home-location write can precede the log commit. */
        bool pinned = false;
        uint64_t lru = 0;
        std::array<uint8_t, fsBlockBytes> data;
    };

    /** Pin/unpin a block against eviction. */
    void pin(uint32_t block_no, bool pinned);

    /** Get the buffer for @p block_no, reading it if needed. A dirty
     *  LRU victim is written back through @p io. */
    Buf &get(BlockIo &io, uint32_t block_no);

    /** Write every dirty buffer through. */
    void flushAll(BlockIo &io);

    /** Drop all cached state (crash simulation). */
    void invalidateAll();

    Counter hits;
    Counter misses;

  private:
    uint32_t capacity;
    uint64_t clock = 0;
    /** Buffers in insertion order, which is flushAll's write order. */
    std::list<Buf> bufs;
    /** Block number -> its buffer in bufs; looked up, never iterated. */
    std::unordered_map<uint32_t, std::list<Buf>::iterator> index;

    Buf *find(uint32_t block_no);
};

/** Result codes (negative errno-style values). */
enum FsStatus : int64_t
{
    fsOk = 0,
    fsErrNotFound = -2,
    fsErrExists = -17,
    fsErrNoSpace = -28,
    fsErrBadFd = -9,
    fsErrIsDir = -21,
    fsErrNotDir = -20,
    fsErrNameTooLong = -36,
    fsErrNotEmpty = -39,
};

/** The file system proper. */
class Xv6Fs
{
  public:
    Xv6Fs();

    /** Format a fresh file system onto @p io. */
    static void mkfs(BlockIo &io, uint32_t total_blocks,
                     uint32_t ninodes = 512, uint32_t nlog = 64);

    /** Attach to a formatted device, replaying a committed log. */
    int64_t mount(BlockIo &io);

    /** True when a committed-but-uninstalled log was replayed. */
    bool recoveredOnMount() const { return recovered; }

    /// @name File API (pread/pwrite style, errno-like returns).
    /// @{
    int64_t open(const std::string &path, bool create);
    int64_t pread(int64_t fd, uint64_t off, void *dst, uint64_t len);
    int64_t pwrite(int64_t fd, uint64_t off, const void *src,
                   uint64_t len);
    int64_t close(int64_t fd);
    int64_t fileSize(int64_t fd);
    int64_t unlink(const std::string &path);
    int64_t mkdir(const std::string &path);
    /// @}

    /** Flush the buffer cache through to the device. */
    void sync();

    BufCache &cache() { return bcache; }

    Counter transactions;
    Counter logWrites;
    /** Blocks leaked instead of double-freed off a corrupt bitmap. */
    Counter leakedBlocks;

  private:
    BlockIo *io = nullptr;
    SuperBlock sb{};
    BufCache bcache;
    bool recovered = false;

    struct OpenFile
    {
        bool used = false;
        uint32_t inum = 0;
    };
    std::vector<OpenFile> fdTable;

    /// @name Transactions (the xv6 log).
    /// @{
    bool inOp = false;
    std::vector<uint32_t> dirtyBlocks; ///< absorbed, ordered
    void beginOp();
    void logWrite(uint32_t block_no);
    void endOp();
    void installLog(bool from_recovery);
    /// @}

    /// @name Low-level helpers.
    /// @{
    BufCache::Buf &bread(uint32_t block_no);
    uint32_t balloc();
    void bfree(uint32_t block_no);
    DiskInode readInode(uint32_t inum);
    void writeInode(uint32_t inum, const DiskInode &ino);
    uint32_t ialloc(InodeType type);
    /** Map file block @p bn to a disk block, allocating if asked. */
    uint32_t bmap(uint32_t inum, DiskInode &ino, uint32_t bn,
                  bool alloc);
    void itrunc(uint32_t inum, DiskInode &ino);
    int64_t readi(uint32_t inum, uint64_t off, void *dst, uint64_t len);
    int64_t writei(uint32_t inum, uint64_t off, const void *src,
                   uint64_t len);
    /// @}

    /// @name Path handling.
    /// @{
    static std::vector<std::string> splitPath(const std::string &path);
    int64_t dirLookup(uint32_t dir_inum, const std::string &name);
    int64_t dirLink(uint32_t dir_inum, const std::string &name,
                    uint32_t inum);
    int64_t dirUnlink(uint32_t dir_inum, const std::string &name);
    bool dirEmpty(uint32_t dir_inum);
    /** Resolve @p path; with @p parent, stop one level early and
     *  return the final component via @p last. */
    int64_t namei(const std::string &path, bool parent,
                  std::string *last);
    /// @}
};

} // namespace xpc::services::fs

#endif // XPC_SERVICES_FS_XV6FS_HH
