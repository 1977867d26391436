#include "crc.hh"

#if defined(__x86_64__)
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

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

#if defined(__x86_64__)
__attribute__((target("pclmul,sse4.1"))) inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** @p acc times the x^n pair in @p k (low half by k's low, high half
 *  by k's high), plus @p next: @p acc moved n bits further along. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold128(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
}

/**
 * Fold @p len bytes at @p p (a multiple of 16, at least 64) into the
 * crc register @p c (the seed already inverted) with carry-less
 * multiplies, after Intel's "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ": four 128-bit lanes step over 64-byte
 * blocks, fold into one lane, which takes any 16-byte block left; the
 * 128-bit remainder then reduces to 64 bits, to 32, and by Barrett to
 * the register. The constants are that paper's for the reflected IEEE
 * polynomial P, each x^n mod P bit-reflected and shifted left by one:
 * k1, k2 for n = 4*128 +- 32 (a lane's 64-byte step), k3, k4 for
 * n = 128 +- 32 (a 16-byte step), k5 for n = 64, and P' and
 * mu = x^64 / P for the Barrett step. Compiled for PCLMULQDQ and
 * SSE4.1 whatever the build flags.
 */
__attribute__((target("pclmul,sse4.1"))) uint32_t
crc32Clmul(const uint8_t *p, size_t len, uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

    // The lanes are four variables, not an array, so that they stay
    // in registers at -O2 too.
    __m128i l0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(int(c)));
    __m128i l1 = load128(p + 16), l2 = load128(p + 32);
    __m128i l3 = load128(p + 48);
    p += 64, len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        l0 = fold128(l0, k1k2, load128(p));
        l1 = fold128(l1, k1k2, load128(p + 16));
        l2 = fold128(l2, k1k2, load128(p + 32));
        l3 = fold128(l3, k1k2, load128(p + 48));
    }
    __m128i acc = fold128(fold128(fold128(l0, k3k4, l1), k3k4, l2), k3k4,
                          l3);
    for (; len >= 16; p += 16, len -= 16)
        acc = fold128(acc, k3k4, load128(p));

    // 128 -> 64 bits: the low half times k4, plus the high half.
    acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10),
                        _mm_srli_si128(acc, 8));
    // 64 -> 32 bits: the low word times k5, plus the words above it.
    acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        _mm_srli_si128(acc, 4));
    // Barrett: q = (low word * mu) mod x^32, then acc + q * P' leaves
    // the register in the second word.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return uint32_t(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}
#endif

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
#if defined(__x86_64__)
    static const bool clmul = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0 &&
               __builtin_cpu_supports("sse4.1") != 0;
    }();
    if (clmul && len >= 64) {
        const auto *p = static_cast<const uint8_t *>(data);
        size_t head = len & ~size_t(15);
        uint32_t c = crc32Clmul(p, head, seed ^ 0xffffffffu);
        return crc32Tables(p + head, len - head, c ^ 0xffffffffu);
    }
#endif
    return crc32Tables(data, len, seed);
}

uint32_t
crc32Tables(const void *data, size_t len, uint32_t seed)
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
