/**
 * @file
 * CRC-32 (IEEE, reflected) shared by the WAL codec and the
 * transport-level xcall envelope. One polynomial, two kernels that
 * compute the same value: a checksum mismatch means the same thing
 * everywhere in the tree.
 */

#ifndef XPC_SIM_CRC_HH
#define XPC_SIM_CRC_HH

#include <cstddef>
#include <cstdint>

namespace xpc {

/**
 * CRC-32 of @p len bytes at @p data, chained through @p seed. On
 * x86-64 hosts with PCLMULQDQ and SSE4.1 a buffer of 64 bytes or more
 * is folded with carry-less multiplies up to its last 16-byte
 * boundary and crc32Tables finishes the tail; every other buffer and
 * host takes crc32Tables alone.
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** crc32 on slicing-by-8 tables: the path hosts without PCLMULQDQ take. */
uint32_t crc32Tables(const void *data, size_t len, uint32_t seed = 0);

} // namespace xpc

#endif // XPC_SIM_CRC_HH
