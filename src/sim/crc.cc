#include "crc.hh"

namespace xpc {

namespace {

/**
 * Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][b]
 * is the crc of byte b followed by k zero bytes, so one 8-byte step is
 * eight independent lookups XORed together.
 */
struct CrcTables
{
    uint32_t t[8][256];
};

constexpr CrcTables
makeTables()
{
    CrcTables tabs{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tabs.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
        for (int k = 1; k < 8; k++) {
            uint32_t prev = tabs.t[k - 1][i];
            tabs.t[k][i] = (prev >> 8) ^ tabs.t[0][prev & 0xff];
        }
    }
    return tabs;
}

constexpr CrcTables crcTables = makeTables();

/** Little-endian 32-bit load, independent of host byte order. */
inline uint32_t
load32le(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const auto &t = crcTables.t;
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = c ^ load32le(p);
        uint32_t hi = load32le(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; p++, len--)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace xpc
