/**
 * @file
 * Tests for the service layer: AES against FIPS/NIST vectors and a
 * byte-wise reference cipher, the xv6 file system (including
 * crash-consistency properties), the TCP stack, and the
 * block/FS/net/web servers over the IPC transports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/system.hh"
#include "services/block_device.hh"
#include "services/crypto/aes.hh"
#include "services/fs/xv6fs.hh"
#include "services/fs_server.hh"
#include "services/net/tcp.hh"
#include "services/net_server.hh"
#include "services/proto.hh"
#include "services/web.hh"
#include "sim/random.hh"

namespace xpc::services {
namespace {

// --------------------------------------------------------------------
// AES-128
// --------------------------------------------------------------------

/**
 * Byte-wise FIPS-197 AES-128 encryption, written independently of
 * crypto::Aes128 as the reference for the differential tests below:
 * the S-box is derived from its definition (GF(2^8) inverse, then the
 * affine map of FIPS-197 5.1.1) and the rounds follow FIPS-197 5.1
 * literally, one byte at a time.
 */
class RefAes128
{
  public:
    explicit RefAes128(const uint8_t key[16])
    {
        const auto &sbox = refSbox();
        std::memcpy(w, key, 16);
        uint8_t rcon = 1;
        for (int i = 4; i < 44; i++) {
            uint8_t t[4];
            std::memcpy(t, w + 4 * (i - 1), 4);
            if (i % 4 == 0) {
                // RotWord, SubWord, then Rcon into the first byte.
                uint8_t t0 = t[0];
                t[0] = uint8_t(sbox[t[1]] ^ rcon);
                t[1] = sbox[t[2]];
                t[2] = sbox[t[3]];
                t[3] = sbox[t0];
                rcon = xtime(rcon);
            }
            for (int j = 0; j < 4; j++)
                w[4 * i + j] = uint8_t(w[4 * (i - 4) + j] ^ t[j]);
        }
    }

    void
    encrypt(const uint8_t in[16], uint8_t out[16]) const
    {
        uint8_t s[16];
        std::memcpy(s, in, 16);
        addRoundKey(s, 0);
        for (int round = 1; round < 10; round++) {
            subBytes(s);
            shiftRows(s);
            mixColumns(s);
            addRoundKey(s, round);
        }
        subBytes(s);
        shiftRows(s);
        addRoundKey(s, 10);
        std::memcpy(out, s, 16);
    }

    /** CBC over whole blocks; a trailing partial block is untouched. */
    void
    encryptCbc(uint8_t *data, size_t len, const uint8_t iv[16]) const
    {
        uint8_t chain[16];
        std::memcpy(chain, iv, 16);
        for (size_t off = 0; off + 16 <= len; off += 16) {
            for (int i = 0; i < 16; i++)
                data[off + i] ^= chain[i];
            encrypt(data + off, data + off);
            std::memcpy(chain, data + off, 16);
        }
    }

  private:
    uint8_t w[176] = {}; ///< expanded key, round r at w[16 * r]

    static uint8_t
    xtime(uint8_t x)
    {
        return uint8_t((x << 1) ^ ((x >> 7) * 0x1b));
    }

    static uint8_t
    mul(uint8_t a, uint8_t b)
    {
        uint8_t p = 0;
        for (; b; b >>= 1, a = xtime(a))
            if (b & 1)
                p ^= a;
        return p;
    }

    static const std::array<uint8_t, 256> &
    refSbox()
    {
        static const std::array<uint8_t, 256> box = [] {
            std::array<uint8_t, 256> b{};
            for (int x = 0; x < 256; x++) {
                uint8_t inv = 0; // 0 has no inverse and maps to 0
                for (int y = 1; y < 256 && x != 0; y++)
                    if (mul(uint8_t(x), uint8_t(y)) == 1)
                        inv = uint8_t(y);
                uint8_t s = 0x63;
                for (int k = 0; k < 5; k++)
                    s ^= uint8_t((inv << k) | (inv >> ((8 - k) & 7)));
                b[x] = s;
            }
            return b;
        }();
        return box;
    }

    void
    addRoundKey(uint8_t s[16], int round) const
    {
        for (int i = 0; i < 16; i++)
            s[i] ^= w[16 * round + i];
    }

    static void
    subBytes(uint8_t s[16])
    {
        for (int i = 0; i < 16; i++)
            s[i] = refSbox()[s[i]];
    }

    /** Byte s[r + 4c] is row r, column c; row r rotates left by r. */
    static void
    shiftRows(uint8_t s[16])
    {
        uint8_t t[16];
        std::memcpy(t, s, 16);
        for (int r = 1; r < 4; r++)
            for (int c = 0; c < 4; c++)
                s[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
    }

    static void
    mixColumns(uint8_t s[16])
    {
        for (int c = 0; c < 4; c++) {
            uint8_t *col = s + 4 * c;
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = uint8_t(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
            col[1] = uint8_t(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
            col[2] = uint8_t(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
            col[3] = uint8_t(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
        }
    }
};

void
fillRandom(Rng &rng, uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; i++)
        p[i] = uint8_t(rng.next());
}

/** A random IV with at least one bit set, so chaining is exercised. */
void
randomIv(Rng &rng, uint8_t iv[16])
{
    fillRandom(rng, iv, 16);
    iv[rng.nextBounded(16)] |= uint8_t(1u << rng.nextBounded(8));
}

/**
 * Both CBC encryption kernels: encryptCbc (AES-NI on a host that has
 * it) and the T-table path every other host takes, so each runs here
 * whatever the host.
 */
using CbcKernel = void (crypto::Aes128::*)(uint8_t *, size_t,
                                           const uint8_t *) const;
const std::pair<const char *, CbcKernel> cbcKernels[] = {
    {"encryptCbc", &crypto::Aes128::encryptCbc},
    {"encryptCbcTables", &crypto::Aes128::encryptCbcTables},
};

TEST(AesTest, Fips197AppendixBVector)
{
    const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                             0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                             0x4f, 0x3c};
    const uint8_t plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                               0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                               0xe0, 0x37, 0x07, 0x34};
    const uint8_t expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                0x19, 0x6a, 0x0b, 0x32};
    crypto::Aes128 aes(key);
    uint8_t out[16];
    aes.encryptBlock(plain, out);
    EXPECT_EQ(std::memcmp(out, expect, 16), 0);
    uint8_t back[16];
    aes.decryptBlock(out, back);
    EXPECT_EQ(std::memcmp(back, plain, 16), 0);

    // The reference the differential tests trust must pass too.
    uint8_t ref[16];
    RefAes128(key).encrypt(plain, ref);
    EXPECT_EQ(std::memcmp(ref, expect, 16), 0);
}

TEST(AesTest, Nist38aCbcVector)
{
    // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, all four blocks.
    const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                             0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                             0x4f, 0x3c};
    const uint8_t iv[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                            0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                            0x0e, 0x0f};
    const uint8_t plain[64] = {
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d,
        0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57,
        0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f,
        0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10};
    const uint8_t expect[64] = {
        0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9,
        0x8e, 0x9b, 0x12, 0xe9, 0x19, 0x7d, 0x50, 0x86, 0xcb, 0x9b,
        0x50, 0x72, 0x19, 0xee, 0x95, 0xdb, 0x11, 0x3a, 0x91, 0x76,
        0x78, 0xb2, 0x73, 0xbe, 0xd6, 0xb8, 0xe3, 0xc1, 0x74, 0x3b,
        0x71, 0x16, 0xe6, 0x9e, 0x22, 0x22, 0x95, 0x16, 0x3f, 0xf1,
        0xca, 0xa1, 0x68, 0x1f, 0xac, 0x09, 0x12, 0x0e, 0xca, 0x30,
        0x75, 0x86, 0xe1, 0xa7};
    crypto::Aes128 aes(key);
    for (const auto &[name, encrypt] : cbcKernels) {
        uint8_t data[64];
        std::memcpy(data, plain, sizeof(data));
        (aes.*encrypt)(data, sizeof(data), iv);
        EXPECT_EQ(std::memcmp(data, expect, sizeof(data)), 0) << name;
        aes.decryptCbc(data, sizeof(data), iv);
        EXPECT_EQ(std::memcmp(data, plain, sizeof(data)), 0) << name;
    }
}

TEST(AesTest, CbcRoundTripsRandomData)
{
    Rng rng(4);
    uint8_t key[16];
    fillRandom(rng, key, sizeof(key));
    crypto::Aes128 aes(key);
    // The crypto server's all-zero IV, then a random non-zero one.
    uint8_t ivs[2][16] = {};
    randomIv(rng, ivs[1]);
    for (const auto &iv : ivs) {
        std::vector<uint8_t> data(4096), orig;
        fillRandom(rng, data.data(), data.size());
        orig = data;
        aes.encryptCbc(data.data(), data.size(), iv);
        EXPECT_NE(data, orig);
        aes.decryptCbc(data.data(), data.size(), iv);
        EXPECT_EQ(data, orig);
    }
}

TEST(AesTest, EncryptBlockMatchesBytewiseReference)
{
    Rng rng(0xae5);
    for (int i = 0; i < 2000; i++) {
        uint8_t key[16], plain[16];
        fillRandom(rng, key, sizeof(key));
        fillRandom(rng, plain, sizeof(plain));
        crypto::Aes128 aes(key);
        uint8_t expect[16], out[16];
        RefAes128(key).encrypt(plain, expect);

        aes.encryptBlock(plain, out);
        ASSERT_EQ(std::memcmp(out, expect, 16), 0) << "pair " << i;
        // In place: the output overwrites its own input.
        aes.encryptBlock(plain, plain);
        ASSERT_EQ(std::memcmp(plain, expect, 16), 0) << "pair " << i;
    }
}

TEST(AesTest, EncryptCbcMatchesBytewiseReference)
{
    // Every length 0-335, and 4096-4111 (the mesh's bodies reach
    // 4 KiB), in place at offsets 0-15 from an aligned base, with a
    // random IV. The buffer sits between random guard bytes, so a
    // kernel that writes past the whole blocks, into the partial tail
    // or beyond, fails the byte compare.
    std::vector<size_t> lens(20 * 16 + 16);
    std::iota(lens.begin(), lens.end(), 0);
    for (size_t len = 4096; len < 4096 + 16; len++)
        lens.push_back(len);
    constexpr size_t guard = 16;
    alignas(16) uint8_t arena[guard + 15 + 4096 + 15 + guard];
    Rng rng(0xcbc);
    for (size_t len : lens) {
        uint8_t key[16], iv[16];
        fillRandom(rng, key, sizeof(key));
        randomIv(rng, iv);
        fillRandom(rng, arena, sizeof(arena));
        std::vector<uint8_t> orig(len);
        fillRandom(rng, orig.data(), len);
        std::vector<uint8_t> expect = orig;
        RefAes128(key).encryptCbc(expect.data(), len, iv);
        size_t whole = len / 16 * 16;
        ASSERT_TRUE(std::equal(expect.begin() + whole, expect.end(),
                               orig.begin() + whole))
            << "the reference touched the partial tail at len " << len;

        crypto::Aes128 aes(key);
        for (const auto &[name, encrypt] : cbcKernels) {
            for (size_t off = 0; off < 16; off++) {
                uint8_t *buf = arena + guard + off;
                std::copy(orig.begin(), orig.end(), buf);
                std::vector<uint8_t> want(arena, arena + sizeof(arena));
                std::copy(expect.begin(), expect.end(),
                          want.begin() + (buf - arena));
                (aes.*encrypt)(buf, len, iv);
                ASSERT_EQ(std::memcmp(arena, want.data(), sizeof(arena)),
                          0)
                    << name << " len " << len << " offset " << off;
            }
        }
    }
}

// --------------------------------------------------------------------
// TCP
// --------------------------------------------------------------------

TEST(TcpTest, ChecksumMatchesRfc1071Example)
{
    // Classic example: checksum of {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
    const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                            0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(net::inetChecksum(data, sizeof(data)), 0x220d);
}

class TcpLoop : public ::testing::Test
{
  protected:
    TcpLoop()
    {
        xmit = [this](std::vector<uint8_t> &frame) {
            stack.deliver(frame.data(), frame.size());
        };
        srv = stack.socket();
        stack.listen(srv, 80);
        cli = stack.socket();
        stack.connect(cli, 80, xmit);
    }

    net::TcpStack stack;
    std::function<void(std::vector<uint8_t> &)> xmit;
    int64_t srv = 0, cli = 0;
};

TEST_F(TcpLoop, DataFlowsClientToServer)
{
    std::vector<uint8_t> msg(5000);
    std::iota(msg.begin(), msg.end(), 0);
    EXPECT_EQ(stack.send(cli, msg.data(), msg.size(), xmit),
              int64_t(msg.size()));
    // 5000 bytes = 4 segments at MSS 1460.
    EXPECT_EQ(stack.segmentsSent.value(), 4u);
    std::vector<uint8_t> got(msg.size());
    EXPECT_EQ(stack.recv(srv, got.data(), got.size()),
              int64_t(msg.size()));
    EXPECT_EQ(got, msg);
    EXPECT_EQ(stack.checksumFailures.value(), 0u);
}

TEST_F(TcpLoop, CorruptSegmentIsDropped)
{
    std::vector<uint8_t> msg(100, 0x42);
    auto corrupting = [this](std::vector<uint8_t> &frame) {
        frame[sizeof(net::TcpHeader) + 10] ^= 0xff;
        stack.deliver(frame.data(), frame.size());
    };
    stack.send(cli, msg.data(), msg.size(), corrupting);
    EXPECT_EQ(stack.checksumFailures.value(), 1u);
    std::vector<uint8_t> got(msg.size());
    EXPECT_EQ(stack.recv(srv, got.data(), got.size()), 0);
}

TEST_F(TcpLoop, SequenceNumbersAdvance)
{
    std::vector<uint8_t> msg(2000, 1);
    stack.send(cli, msg.data(), msg.size(), xmit);
    const net::TcpSocket *c = stack.find(cli);
    const net::TcpSocket *s = stack.find(srv);
    ASSERT_NE(c, nullptr);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(c->sndNxt, 1u + 2000u); // SYN consumed one
    EXPECT_EQ(s->rcvNxt, c->sndNxt);
}

TEST(TcpTest, EphemeralPortsArePerStack)
{
    // Each stack numbers its own connects, so a second stack in the
    // same process hands out the same first port as the first one.
    net::TcpStack a, b;
    for (net::TcpStack *stack : {&a, &b}) {
        auto xmit = [stack](std::vector<uint8_t> &frame) {
            stack->deliver(frame.data(), frame.size());
        };
        stack->listen(stack->socket(), 80);
        int64_t cli = stack->socket();
        ASSERT_EQ(stack->connect(cli, 80, xmit), 0);
        EXPECT_EQ(stack->find(cli)->localPort, 40000);
    }
}

// --------------------------------------------------------------------
// xv6fs over an in-memory disk
// --------------------------------------------------------------------

/** Host-memory BlockIo with optional fault injection. */
class MemDisk : public fs::BlockIo
{
  public:
    explicit MemDisk(uint32_t nblocks)
        : blocks(nblocks,
                 std::vector<uint8_t>(fs::fsBlockBytes, 0))
    {}

    void
    read(uint32_t block_no, void *dst) override
    {
        std::memcpy(dst, blocks.at(block_no).data(), fs::fsBlockBytes);
    }

    void
    write(uint32_t block_no, const void *src) override
    {
        if (writesUntilCrash >= 0) {
            if (writesUntilCrash == 0)
                throw CrashNow{};
            writesUntilCrash--;
        }
        std::memcpy(blocks.at(block_no).data(), src, fs::fsBlockBytes);
        totalWrites++;
    }

    struct CrashNow
    {
    };

    std::vector<std::vector<uint8_t>> blocks;
    int64_t writesUntilCrash = -1;
    uint64_t totalWrites = 0;
};

class Xv6FsTest : public ::testing::Test
{
  protected:
    Xv6FsTest() : disk(2048)
    {
        fs::Xv6Fs::mkfs(disk, 2048);
        EXPECT_EQ(filesystem.mount(disk), fs::fsOk);
    }

    MemDisk disk;
    fs::Xv6Fs filesystem;
};

TEST_F(Xv6FsTest, CreateWriteReadBack)
{
    int64_t fd = filesystem.open("/hello.txt", true);
    ASSERT_GE(fd, 0);
    const char msg[] = "hello, file system";
    EXPECT_EQ(filesystem.pwrite(fd, 0, msg, sizeof(msg)),
              int64_t(sizeof(msg)));
    char out[sizeof(msg)] = {};
    EXPECT_EQ(filesystem.pread(fd, 0, out, sizeof(out)),
              int64_t(sizeof(out)));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(filesystem.fileSize(fd), int64_t(sizeof(msg)));
    EXPECT_EQ(filesystem.close(fd), fs::fsOk);
}

TEST_F(Xv6FsTest, OpenMissingFails)
{
    EXPECT_EQ(filesystem.open("/nope", false), fs::fsErrNotFound);
}

TEST_F(Xv6FsTest, PersistsAcrossRemount)
{
    int64_t fd = filesystem.open("/persist", true);
    filesystem.pwrite(fd, 0, "data", 4);
    filesystem.close(fd);
    filesystem.sync();

    fs::Xv6Fs again;
    ASSERT_EQ(again.mount(disk), fs::fsOk);
    int64_t fd2 = again.open("/persist", false);
    ASSERT_GE(fd2, 0);
    char out[4];
    EXPECT_EQ(again.pread(fd2, 0, out, 4), 4);
    EXPECT_EQ(std::memcmp(out, "data", 4), 0);
}

TEST_F(Xv6FsTest, LargeFileThroughIndirectBlocks)
{
    // > 12 direct blocks (48 KiB) forces the indirect path.
    int64_t fd = filesystem.open("/big", true);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data(200 * 1024);
    Rng rng(5);
    for (auto &b : data)
        b = uint8_t(rng.next());
    EXPECT_EQ(filesystem.pwrite(fd, 0, data.data(), data.size()),
              int64_t(data.size()));
    std::vector<uint8_t> out(data.size());
    EXPECT_EQ(filesystem.pread(fd, 0, out.data(), out.size()),
              int64_t(out.size()));
    EXPECT_EQ(out, data);
}

TEST_F(Xv6FsTest, SparseReadsReturnZeros)
{
    int64_t fd = filesystem.open("/sparse", true);
    filesystem.pwrite(fd, 100000, "x", 1);
    char c = 1;
    EXPECT_EQ(filesystem.pread(fd, 50000, &c, 1), 1);
    EXPECT_EQ(c, 0);
}

TEST_F(Xv6FsTest, UnlinkFreesSpace)
{
    int64_t fd = filesystem.open("/temp", true);
    std::vector<uint8_t> data(64 * 1024, 7);
    filesystem.pwrite(fd, 0, data.data(), data.size());
    filesystem.close(fd);
    EXPECT_EQ(filesystem.unlink("/temp"), fs::fsOk);
    EXPECT_EQ(filesystem.open("/temp", false), fs::fsErrNotFound);

    // The freed blocks are reusable: write another large file.
    int64_t fd2 = filesystem.open("/temp2", true);
    EXPECT_EQ(filesystem.pwrite(fd2, 0, data.data(), data.size()),
              int64_t(data.size()));
}

TEST_F(Xv6FsTest, DirectoriesNest)
{
    EXPECT_EQ(filesystem.mkdir("/a"), fs::fsOk);
    EXPECT_EQ(filesystem.mkdir("/a/b"), fs::fsOk);
    int64_t fd = filesystem.open("/a/b/file", true);
    ASSERT_GE(fd, 0);
    filesystem.pwrite(fd, 0, "nested", 6);
    char out[6];
    int64_t fd2 = filesystem.open("/a/b/file", false);
    EXPECT_EQ(filesystem.pread(fd2, 0, out, 6), 6);
    EXPECT_EQ(std::memcmp(out, "nested", 6), 0);
    // A non-empty directory cannot be unlinked.
    EXPECT_EQ(filesystem.unlink("/a"), fs::fsErrNotEmpty);
}

TEST_F(Xv6FsTest, ManyFilesInRoot)
{
    for (int i = 0; i < 100; i++) {
        std::string path = "/f" + std::to_string(i);
        int64_t fd = filesystem.open(path, true);
        ASSERT_GE(fd, 0) << path;
        uint32_t tag = uint32_t(i * 31);
        filesystem.pwrite(fd, 0, &tag, sizeof(tag));
        filesystem.close(fd);
    }
    for (int i = 0; i < 100; i++) {
        std::string path = "/f" + std::to_string(i);
        int64_t fd = filesystem.open(path, false);
        ASSERT_GE(fd, 0) << path;
        uint32_t tag = 0;
        filesystem.pread(fd, 0, &tag, sizeof(tag));
        EXPECT_EQ(tag, uint32_t(i * 31));
        filesystem.close(fd);
    }
}

/**
 * Crash-consistency property: crash the disk after every possible
 * prefix of writes during an update transaction; after recovery the
 * file must hold either the old or the new content, never a mix.
 */
TEST(Xv6FsCrashTest, PropertyTransactionIsAtomicUnderCrash)
{
    // First, count the writes a reference run performs.
    std::vector<uint8_t> old_content(8192, 0xaa);
    std::vector<uint8_t> new_content(8192, 0xbb);

    auto setup = [&](MemDisk &disk) {
        fs::Xv6Fs::mkfs(disk, 1024);
        fs::Xv6Fs f;
        EXPECT_EQ(f.mount(disk), fs::fsOk);
        int64_t fd = f.open("/victim", true);
        f.pwrite(fd, 0, old_content.data(), old_content.size());
        f.close(fd);
        f.sync();
    };

    MemDisk ref(1024);
    setup(ref);
    uint64_t before = ref.totalWrites;
    {
        fs::Xv6Fs f;
        f.mount(ref);
        int64_t fd = f.open("/victim", false);
        f.pwrite(fd, 0, new_content.data(), new_content.size());
    }
    uint64_t tx_writes = ref.totalWrites - before;
    ASSERT_GT(tx_writes, 4u);

    int old_seen = 0, new_seen = 0;
    for (uint64_t crash_at = 0; crash_at <= tx_writes; crash_at++) {
        MemDisk disk(1024);
        setup(disk);
        disk.writesUntilCrash = int64_t(crash_at);
        try {
            fs::Xv6Fs f;
            f.mount(disk);
            int64_t fd = f.open("/victim", false);
            f.pwrite(fd, 0, new_content.data(), new_content.size());
        } catch (const MemDisk::CrashNow &) {
            // Power failure at this write boundary.
        }
        disk.writesUntilCrash = -1;

        fs::Xv6Fs recovered;
        ASSERT_EQ(recovered.mount(disk), fs::fsOk);
        int64_t fd = recovered.open("/victim", false);
        ASSERT_GE(fd, 0) << "crash at write " << crash_at;
        std::vector<uint8_t> got(old_content.size());
        ASSERT_EQ(recovered.pread(fd, 0, got.data(), got.size()),
                  int64_t(got.size()));
        bool is_old = got == old_content;
        bool is_new = got == new_content;
        EXPECT_TRUE(is_old || is_new)
            << "mixed content after crash at write " << crash_at;
        old_seen += is_old;
        new_seen += is_new;
    }
    // Both outcomes must actually occur across the sweep.
    EXPECT_GT(old_seen, 0);
    EXPECT_GT(new_seen, 0);
}

// --------------------------------------------------------------------
// Services over IPC transports
// --------------------------------------------------------------------

class ServiceStack : public ::testing::TestWithParam<core::SystemFlavor>
{
  protected:
    ServiceStack()
    {
        core::SystemOptions opts;
        opts.flavor = GetParam();
        sys = std::make_unique<core::System>(opts);
    }

    std::unique_ptr<core::System> sys;
};

TEST_P(ServiceStack, BlockDeviceRoundTrips)
{
    core::Transport &tr = sys->transport();
    kernel::Thread &dev_t = sys->spawn("blockdev");
    kernel::Thread &client = sys->spawn("client");
    BlockDeviceServer dev(tr, dev_t, 64);
    tr.connect(client, dev.id());
    tr.prepareScratch(sys->core(0), client,
                      proto::blockDataOffset +
                          BlockDeviceServer::blockBytes);

    std::vector<uint8_t> block(BlockDeviceServer::blockBytes);
    Rng rng(9);
    for (auto &b : block)
        b = uint8_t(rng.next());

    std::vector<uint8_t> req(proto::blockDataOffset + block.size());
    proto::packInto(req.data(), proto::BlockReq{7, 1});
    std::memcpy(req.data() + proto::blockDataOffset, block.data(),
                block.size());
    tr.scratchCall(sys->core(0), client, false, dev.id(),
                   uint64_t(proto::BlockOp::Write), req.data(),
                   req.size(), nullptr, 0);

    std::vector<uint8_t> got(block.size());
    auto read = [&](uint64_t block_no) {
        uint8_t hdr[16];
        proto::packInto(hdr, proto::BlockReq{block_no, 1});
        return tr.scratchCall(sys->core(0), client, false, dev.id(),
                              uint64_t(proto::BlockOp::Read), hdr,
                              sizeof(hdr), got.data(), got.size());
    };
    EXPECT_EQ(read(7), got.size());
    EXPECT_EQ(got, block);
    // The device reuses one buffer for every call: a block never
    // written reads as zeros, not as the block it served last.
    EXPECT_EQ(read(8), got.size());
    EXPECT_EQ(got, std::vector<uint8_t>(block.size(), 0));
    EXPECT_EQ(dev.reads.value(), 2u);
    EXPECT_EQ(dev.writes.value(), 1u);
}

TEST_P(ServiceStack, UnwrittenBlockStoreHoldsNoHostFrames)
{
    // The store reads as zeros until written, so a fresh 8,192-block
    // device costs host memory for none of its 32 MiB.
    kernel::Thread &dev_t = sys->spawn("blockdev");
    BlockDeviceServer dev(sys->transport(), dev_t, 8192);
    EXPECT_LT(sys->machine().phys().residentFrames(), 256u);
}

TEST_P(ServiceStack, FileSystemOverIpc)
{
    core::Transport &tr = sys->transport();
    kernel::Thread &dev_t = sys->spawn("blockdev");
    kernel::Thread &fs_t = sys->spawn("fs");
    kernel::Thread &client = sys->spawn("client");

    BlockDeviceServer dev(tr, dev_t, 2048);
    tr.connect(fs_t, dev.id());
    FsServer fsrv(tr, fs_t, dev.id(), 2048);
    tr.connect(client, fsrv.id());

    hw::Core &core = sys->core(0);
    int64_t fd = FsServer::clientOpen(tr, core, client, fsrv.id(),
                                      "/data.bin", true);
    ASSERT_GE(fd, 0);

    std::vector<uint8_t> data(10000);
    Rng rng(11);
    for (auto &b : data)
        b = uint8_t(rng.next());
    EXPECT_EQ(FsServer::clientWrite(tr, core, client, fsrv.id(), fd, 0,
                                    data.data(), data.size()),
              int64_t(data.size()));

    std::vector<uint8_t> got(data.size());
    EXPECT_EQ(FsServer::clientRead(tr, core, client, fsrv.id(), fd, 0,
                                   got.data(), got.size()),
              int64_t(got.size()));
    EXPECT_EQ(got, data);
    EXPECT_GT(dev.writes.value(), 0u);
    EXPECT_EQ(FsServer::clientClose(tr, core, client, fsrv.id(), fd),
              0);
}

/**
 * Requests sized past the device's 64 KiB message, past their own
 * payload or past the caller's reply area fail with
 * IntegrityViolation before the server sizes a buffer off them. None
 * aborts the simulator, each leaves the store, the file and the
 * device's counters as they were, and the next well-formed call
 * succeeds. An XPC reply is written in place, so its room is the
 * caller's message window, not the reply length the caller names:
 * the requests whose reply fits the window but not that length are
 * pinned as they behave there.
 */
TEST_P(ServiceStack, OversizedRequestsFailCleanly)
{
    using proto::blockDataOffset;
    constexpr uint64_t blk = BlockDeviceServer::blockBytes;
    core::Transport &tr = sys->transport();
    kernel::Thread &dev_t = sys->spawn("blockdev");
    kernel::Thread &fs_t = sys->spawn("fs");
    kernel::Thread &client = sys->spawn("client");
    BlockDeviceServer dev(tr, dev_t, 2048);
    tr.connect(fs_t, dev.id());
    FsServer fsrv(tr, fs_t, dev.id(), 2048);
    tr.connect(client, dev.id());
    tr.connect(client, fsrv.id());
    hw::Core &core = sys->core(0);
    bool xpc = GetParam() == core::SystemFlavor::Sel4Xpc ||
               GetParam() == core::SystemFlavor::ZirconXpc;

    // One call with a request of its own and a reply area of
    // @p reply_cap bytes.
    auto call = [&](core::ServiceId svc, uint64_t op,
                    const std::vector<uint8_t> &req, uint64_t reply_cap) {
        tr.requestArea(core, client,
                       std::max<uint64_t>(req.size(), reply_cap));
        EXPECT_TRUE(
            tr.clientWrite(core, client, 0, req.data(), req.size()));
        return tr.call(core, client, svc, op, req.size(), reply_cap);
    };
    std::vector<uint8_t> block(blk);
    Rng rng(13);
    for (auto &b : block)
        b = uint8_t(rng.next());
    // A request for @p count blocks from @p no, carrying @p carried
    // copies of block.
    auto block_req = [&](uint64_t no, uint64_t count, uint64_t carried) {
        std::vector<uint8_t> req(blockDataOffset + carried * blk);
        proto::packInto(req.data(), proto::BlockReq{no, count});
        for (uint64_t i = 0; i < carried; i++)
            std::memcpy(req.data() + blockDataOffset + i * blk,
                        block.data(), blk);
        return req;
    };
    auto fs_req = [](int64_t fd, int64_t len) {
        std::vector<uint8_t> req(proto::fsDataOffset);
        proto::FsMsg m;
        m.a = fd;
        m.c = len;
        proto::packInto(req.data(), m);
        return req;
    };

    // The store: block 2000 holds block and 2001 was never written,
    // far past what the small file system below allocates.
    const uint64_t read_op = uint64_t(proto::BlockOp::Read);
    const uint64_t write_op = uint64_t(proto::BlockOp::Write);
    ASSERT_TRUE(call(dev.id(), write_op, block_req(2000, 1, 1), 0).ok);
    std::vector<uint8_t> text(100);
    for (size_t i = 0; i < text.size(); i++)
        text[i] = uint8_t('a' + i % 26);
    int64_t fd = FsServer::clientOpen(tr, core, client, fsrv.id(),
                                      "/kept", true);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(FsServer::clientWrite(tr, core, client, fsrv.id(), fd, 0,
                                    text.data(), text.size()),
              int64_t(text.size()));

    // Well-formed calls see the store and the file unchanged.
    auto expect_intact = [&](const char *what) {
        std::vector<uint8_t> got(blk);
        for (uint64_t no : {2000, 2001}) {
            core::CallResult r =
                call(dev.id(), read_op, block_req(no, 1, 0), blk);
            ASSERT_TRUE(r.ok) << what;
            ASSERT_EQ(r.replyLen, blk) << what;
            tr.clientRead(core, client, 0, got.data(), blk);
            EXPECT_EQ(got, no == 2000 ? block
                                      : std::vector<uint8_t>(blk, 0))
                << what << ": block " << no;
        }
        std::vector<uint8_t> back(text.size());
        EXPECT_EQ(FsServer::clientRead(tr, core, client, fsrv.id(), fd,
                                       0, back.data(), back.size()),
                  int64_t(back.size()))
            << what;
        EXPECT_EQ(back, text) << what;
    };
    // @p req fails with IntegrityViolation and moves no counter.
    auto expect_rejected = [&](const char *what, core::ServiceId svc,
                               uint64_t op,
                               const std::vector<uint8_t> &req,
                               uint64_t reply_cap) {
        uint64_t reads = dev.reads.value(), writes = dev.writes.value();
        core::CallResult r = call(svc, op, req, reply_cap);
        EXPECT_FALSE(r.ok) << what;
        EXPECT_EQ(r.status, core::TransportStatus::IntegrityViolation)
            << what;
        EXPECT_EQ(dev.reads.value(), reads) << what;
        EXPECT_EQ(dev.writes.value(), writes) << what;
        expect_intact(what);
    };

    // A request whose reply the caller's named area cannot hold:
    // rejected on seL4 and Zircon, served into the message window on
    // XPC, with @p xpc_reply bytes and @p xpc_reads blocks read.
    auto expect_small_area = [&](const char *what, core::ServiceId svc,
                                 uint64_t op,
                                 const std::vector<uint8_t> &req,
                                 uint64_t reply_cap, uint64_t xpc_reply,
                                 uint64_t xpc_reads) {
        if (!xpc) {
            expect_rejected(what, svc, op, req, reply_cap);
            return;
        }
        uint64_t reads = dev.reads.value();
        core::CallResult r = call(svc, op, req, reply_cap);
        EXPECT_TRUE(r.ok) << what;
        EXPECT_EQ(r.replyLen, xpc_reply) << what;
        EXPECT_EQ(dev.reads.value(), reads + xpc_reads) << what;
        expect_intact(what);
    };
    const uint64_t fs_read = uint64_t(proto::FsOp::Read);
    const uint64_t hdr = proto::fsDataOffset;
    expect_small_area("2 blocks into 1", dev.id(), read_op,
                      block_req(2000, 2, 0), blk, 2 * blk, 2);
    expect_small_area("fs read into 16 bytes", fsrv.id(), fs_read,
                      fs_req(fd, 4096), 16, hdr + text.size(), 0);
    // The reply header fits, half of the file does not.
    expect_small_area("fs read into half", fsrv.id(), fs_read,
                      fs_req(fd, int64_t(text.size())),
                      hdr + text.size() / 2, hdr + text.size(), 0);
    // A Stat's reply is the header alone.
    expect_small_area("fs stat into 16 bytes", fsrv.id(),
                      uint64_t(proto::FsOp::Stat), fs_req(fd, 0), 16,
                      hdr, 0);

    expect_rejected("2-block write of 1", dev.id(), write_op,
                    block_req(2000, 2, 1), 0);
    // 17 blocks, more than one message holds, with room for all of
    // them; a Zircon channel carries at most 64 KiB, so there the
    // write carries 15.
    expect_rejected("17-block read", dev.id(), read_op,
                    block_req(0, 17, 0), 17 * blk);
    bool channel = GetParam() == core::SystemFlavor::Zircon;
    expect_rejected("17-block write", dev.id(), write_op,
                    block_req(0, 17, channel ? 15 : 17), 0);
}

TEST_P(ServiceStack, TcpThroughNetstackAndLoopback)
{
    core::Transport &tr = sys->transport();
    kernel::Thread &dev_t = sys->spawn("loopdev");
    kernel::Thread &net_t = sys->spawn("netstack");
    kernel::Thread &client = sys->spawn("client");

    LoopbackDeviceServer loop(tr, dev_t);
    tr.connect(net_t, loop.id());
    NetStackServer net(tr, net_t, loop.id());
    tr.connect(client, net.id());

    hw::Core &core = sys->core(0);
    int64_t srv = NetStackServer::clientSocket(tr, core, client,
                                               net.id());
    int64_t cli = NetStackServer::clientSocket(tr, core, client,
                                               net.id());
    ASSERT_GT(srv, 0);
    ASSERT_GT(cli, 0);
    EXPECT_EQ(NetStackServer::clientListen(tr, core, client, net.id(),
                                           srv, 8080),
              0);
    EXPECT_EQ(NetStackServer::clientConnect(tr, core, client, net.id(),
                                            cli, 8080),
              0);

    std::vector<uint8_t> msg(4000);
    Rng rng(13);
    for (auto &b : msg)
        b = uint8_t(rng.next());
    EXPECT_EQ(NetStackServer::clientSend(tr, core, client, net.id(),
                                         cli, msg.data(), msg.size()),
              int64_t(msg.size()));
    std::vector<uint8_t> got(msg.size());
    EXPECT_EQ(NetStackServer::clientRecv(tr, core, client, net.id(),
                                         srv, got.data(), got.size()),
              int64_t(got.size()));
    EXPECT_EQ(got, msg);
    EXPECT_GT(loop.framesReflected.value(), 0u);
}

TEST_P(ServiceStack, HttpChainServesAndEncrypts)
{
    core::Transport &tr = sys->transport();
    kernel::Thread &cache_t = sys->spawn("cache");
    kernel::Thread &crypto_t = sys->spawn("crypto");
    kernel::Thread &http_t = sys->spawn("http");
    kernel::Thread &client = sys->spawn("client");

    FileCacheServer cache(tr, cache_t);
    uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                       9, 10, 11, 12, 13, 14, 15, 16};
    CryptoServer cryp(tr, crypto_t, key);

    std::vector<uint8_t> page(1500);
    for (size_t i = 0; i < page.size(); i++)
        page[i] = uint8_t('A' + (i % 26));
    cache.preload("/index.html", page);

    for (bool encrypt : {false, true}) {
        HttpServer http(tr, http_t, cache.id(), cryp.id(), encrypt,
                        4096);
        tr.connect(client, http.id());
        tr.connect(http_t, cache.id());
        tr.connect(http_t, cryp.id());

        hw::Core &core = sys->core(0);
        std::vector<uint8_t> response;
        int64_t n = HttpServer::clientGet(tr, core, client, http.id(),
                                          "/index.html", &response,
                                          4096);
        ASSERT_GT(n, 0);
        std::string text(response.begin(), response.end());
        EXPECT_NE(text.find("HTTP/1.1 200 OK"), std::string::npos);

        size_t body_at = text.find("\r\n\r\n") + 4;
        std::vector<uint8_t> body(response.begin() + body_at,
                                  response.end());
        if (!encrypt) {
            EXPECT_EQ(body, page);
        } else {
            ASSERT_EQ(body.size() % 16, 0u);
            EXPECT_NE(std::memcmp(body.data(), page.data(),
                                  std::min(body.size(), page.size())),
                      0);
            // Decrypting recovers the page.
            crypto::Aes128 aes(key);
            uint8_t iv[16] = {};
            aes.decryptCbc(body.data(), body.size(), iv);
            EXPECT_EQ(std::memcmp(body.data(), page.data(),
                                  page.size()),
                      0);
        }

        // Missing files 404.
        int64_t m = HttpServer::clientGet(tr, core, client, http.id(),
                                          "/missing", &response, 4096);
        ASSERT_GT(m, 0);
        std::string miss(response.begin(), response.end());
        EXPECT_NE(miss.find("404"), std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ServiceStack,
    ::testing::Values(core::SystemFlavor::Sel4TwoCopy,
                      core::SystemFlavor::Sel4OneCopy,
                      core::SystemFlavor::Sel4Xpc,
                      core::SystemFlavor::Zircon,
                      core::SystemFlavor::ZirconXpc),
    [](const ::testing::TestParamInfo<core::SystemFlavor> &info) {
        std::string n = core::systemFlavorName(info.param);
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

} // namespace
} // namespace xpc::services
