#include "aes.hh"

#include <cstring>

#if defined(__x86_64__)
#include <wmmintrin.h>
#endif

namespace xpc::services::crypto {

namespace {

/** The AES S-box (FIPS-197 figure 7). */
constexpr uint8_t sbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

/** Inverse S-box. */
constexpr uint8_t rsbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3,
    0x9e, 0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f,
    0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54,
    0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b,
    0x42, 0xfa, 0xc3, 0x4e, 0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24,
    0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8,
    0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d,
    0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda,
    0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84, 0x90, 0xd8, 0xab,
    0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3,
    0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1,
    0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6,
    0x73, 0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9,
    0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d,
    0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0,
    0xfe, 0x78, 0xcd, 0x5a, 0xf4, 0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07,
    0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f, 0x60,
    0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f,
    0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5,
    0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61, 0x17, 0x2b,
    0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55,
    0x21, 0x0c, 0x7d,
};

constexpr uint8_t rcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                              0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr uint8_t
xtime(uint8_t x)
{
    return uint8_t((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; i++) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

/**
 * Encryption T-tables over little-endian column words: t[0][x] is
 * MixColumns applied to a column holding S(x) in row 0 and zeros
 * elsewhere, i.e. bytes {2·S(x), S(x), S(x), 3·S(x)}; t[r] is t[0]
 * rotated left by 8r bits, the same column with S(x) in row r. One
 * round of SubBytes, ShiftRows and MixColumns is then four lookups
 * XORed together per column.
 */
struct EncTables
{
    uint32_t t[4][256];
};

constexpr EncTables
makeEncTables()
{
    EncTables tabs{};
    for (int i = 0; i < 256; i++) {
        uint8_t s = sbox[i];
        uint32_t w = uint32_t(gmul(s, 2)) | uint32_t(s) << 8 |
                     uint32_t(s) << 16 | uint32_t(gmul(s, 3)) << 24;
        for (int r = 0; r < 4; r++) {
            tabs.t[r][i] = w;
            w = (w << 8) | (w >> 24);
        }
    }
    return tabs;
}

constexpr EncTables encTables = makeEncTables();

/** Little-endian 32-bit load, independent of host byte order. */
inline uint32_t
load32le(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

inline void
store32le(uint8_t *p, uint32_t w)
{
    p[0] = uint8_t(w);
    p[1] = uint8_t(w >> 8);
    p[2] = uint8_t(w >> 16);
    p[3] = uint8_t(w >> 24);
}

uint32_t
subWord(uint32_t w)
{
    return uint32_t(sbox[w & 0xff]) |
           uint32_t(sbox[(w >> 8) & 0xff]) << 8 |
           uint32_t(sbox[(w >> 16) & 0xff]) << 16 |
           uint32_t(sbox[(w >> 24) & 0xff]) << 24;
}

uint32_t
rotWord(uint32_t w)
{
    return (w >> 8) | (w << 24);
}

#if defined(__x86_64__)
/**
 * CBC on AES-NI, compiled for it whatever the build flags. The round
 * keys' little-endian words hold FIPS byte order, so they load as is.
 */
__attribute__((target("aes"))) void
encryptCbcAesNi(const uint32_t *round_keys, uint8_t *data, size_t len,
                const uint8_t *iv)
{
    auto load = [](const void *p) {
        return _mm_loadu_si128(static_cast<const __m128i *>(p));
    };
    __m128i rk[11];
    for (int r = 0; r < 11; r++)
        rk[r] = load(round_keys + 4 * r);
    __m128i chain = load(iv);
    for (size_t off = 0; off + 16 <= len; off += 16) {
        chain = _mm_xor_si128(chain, load(data + off));
        chain = _mm_xor_si128(chain, rk[0]);
        for (int r = 1; r < 10; r++)
            chain = _mm_aesenc_si128(chain, rk[r]);
        chain = _mm_aesenclast_si128(chain, rk[10]);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(data + off), chain);
    }
}
#endif

} // namespace

Aes128::Aes128(const uint8_t key[keyBytes])
{
    for (int i = 0; i < 4; i++) {
        roundKeys[i] = uint32_t(key[4 * i]) |
                       uint32_t(key[4 * i + 1]) << 8 |
                       uint32_t(key[4 * i + 2]) << 16 |
                       uint32_t(key[4 * i + 3]) << 24;
    }
    for (int i = 4; i < 4 * (rounds + 1); i++) {
        uint32_t temp = roundKeys[i - 1];
        if (i % 4 == 0)
            temp = subWord(rotWord(temp)) ^ rcon[i / 4];
        roundKeys[i] = roundKeys[i - 4] ^ temp;
    }
}

void
Aes128::encryptWords(uint32_t w[4]) const
{
    const auto &t = encTables.t;
    const uint32_t *rk = roundKeys.data();
    // Column c of the next state takes row r from column c + r
    // (ShiftRows), so each output column reads one byte of each input
    // column.
    auto mix = [&t](uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
        return t[0][a & 0xff] ^ t[1][(b >> 8) & 0xff] ^
               t[2][(c >> 16) & 0xff] ^ t[3][d >> 24];
    };
    auto sub = [](uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
        return uint32_t(sbox[a & 0xff]) |
               uint32_t(sbox[(b >> 8) & 0xff]) << 8 |
               uint32_t(sbox[(c >> 16) & 0xff]) << 16 |
               uint32_t(sbox[d >> 24]) << 24;
    };

    uint32_t s0 = w[0] ^ rk[0], s1 = w[1] ^ rk[1];
    uint32_t s2 = w[2] ^ rk[2], s3 = w[3] ^ rk[3];
    for (int round = 1; round < rounds; round++) {
        rk += 4;
        uint32_t n0 = mix(s0, s1, s2, s3) ^ rk[0];
        uint32_t n1 = mix(s1, s2, s3, s0) ^ rk[1];
        uint32_t n2 = mix(s2, s3, s0, s1) ^ rk[2];
        uint32_t n3 = mix(s3, s0, s1, s2) ^ rk[3];
        s0 = n0, s1 = n1, s2 = n2, s3 = n3;
    }
    rk += 4;
    w[0] = sub(s0, s1, s2, s3) ^ rk[0];
    w[1] = sub(s1, s2, s3, s0) ^ rk[1];
    w[2] = sub(s2, s3, s0, s1) ^ rk[2];
    w[3] = sub(s3, s0, s1, s2) ^ rk[3];
}

void
Aes128::encryptBlock(const uint8_t in[blockBytes],
                     uint8_t out[blockBytes]) const
{
    uint32_t w[4];
    for (int c = 0; c < 4; c++)
        w[c] = load32le(in + 4 * c);
    encryptWords(w);
    for (int c = 0; c < 4; c++)
        store32le(out + 4 * c, w[c]);
}

void
Aes128::decryptBlock(const uint8_t in[blockBytes],
                     uint8_t out[blockBytes]) const
{
    uint8_t s[16];
    std::memcpy(s, in, 16);

    auto add_round_key = [&](int round) {
        for (int c = 0; c < 4; c++) {
            uint32_t w = roundKeys[4 * round + c];
            s[4 * c + 0] ^= uint8_t(w);
            s[4 * c + 1] ^= uint8_t(w >> 8);
            s[4 * c + 2] ^= uint8_t(w >> 16);
            s[4 * c + 3] ^= uint8_t(w >> 24);
        }
    };

    auto inv_sub_bytes = [&] {
        for (auto &b : s)
            b = rsbox[b];
    };

    auto inv_shift_rows = [&] {
        uint8_t t[16];
        std::memcpy(t, s, 16);
        for (int r = 1; r < 4; r++)
            for (int c = 0; c < 4; c++)
                s[4 * ((c + r) % 4) + r] = t[4 * c + r];
    };

    auto inv_mix_columns = [&] {
        for (int c = 0; c < 4; c++) {
            uint8_t *col = s + 4 * c;
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = uint8_t(gmul(a0, 14) ^ gmul(a1, 11) ^
                             gmul(a2, 13) ^ gmul(a3, 9));
            col[1] = uint8_t(gmul(a0, 9) ^ gmul(a1, 14) ^
                             gmul(a2, 11) ^ gmul(a3, 13));
            col[2] = uint8_t(gmul(a0, 13) ^ gmul(a1, 9) ^
                             gmul(a2, 14) ^ gmul(a3, 11));
            col[3] = uint8_t(gmul(a0, 11) ^ gmul(a1, 13) ^
                             gmul(a2, 9) ^ gmul(a3, 14));
        }
    };

    add_round_key(rounds);
    for (int round = rounds - 1; round > 0; round--) {
        inv_shift_rows();
        inv_sub_bytes();
        add_round_key(round);
        inv_mix_columns();
    }
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(0);

    std::memcpy(out, s, 16);
}

void
Aes128::encryptCbc(uint8_t *data, size_t len,
                   const uint8_t iv[blockBytes]) const
{
#if defined(__x86_64__)
    static const bool aesNi = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") != 0;
    }();
    if (aesNi)
        return encryptCbcAesNi(roundKeys.data(), data, len, iv);
#endif
    encryptCbcTables(data, len, iv);
}

void
Aes128::encryptCbcTables(uint8_t *data, size_t len,
                         const uint8_t iv[blockBytes]) const
{
    uint32_t chain[4];
    for (int c = 0; c < 4; c++)
        chain[c] = load32le(iv + 4 * c);
    for (size_t off = 0; off + blockBytes <= len; off += blockBytes) {
        uint8_t *block = data + off;
        for (int c = 0; c < 4; c++)
            chain[c] ^= load32le(block + 4 * c);
        encryptWords(chain);
        for (int c = 0; c < 4; c++)
            store32le(block + 4 * c, chain[c]);
    }
}

void
Aes128::decryptCbc(uint8_t *data, size_t len,
                   const uint8_t iv[blockBytes]) const
{
    uint8_t chain[blockBytes];
    uint8_t next[blockBytes];
    std::memcpy(chain, iv, blockBytes);
    for (size_t off = 0; off + blockBytes <= len; off += blockBytes) {
        std::memcpy(next, data + off, blockBytes);
        decryptBlock(data + off, data + off);
        for (size_t i = 0; i < blockBytes; i++)
            data[off + i] ^= chain[i];
        std::memcpy(chain, next, blockBytes);
    }
}

} // namespace xpc::services::crypto
