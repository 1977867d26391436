/**
 * @file
 * CRC-32 (IEEE, reflected, slicing-by-8) shared by the WAL codec and
 * the transport-level xcall envelope. One implementation, one
 * polynomial: a checksum mismatch means the same thing everywhere in
 * the tree.
 */

#ifndef XPC_SIM_CRC_HH
#define XPC_SIM_CRC_HH

#include <cstddef>
#include <cstdint>

namespace xpc {

/** CRC-32 of @p len bytes at @p data, chained through @p seed. */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

} // namespace xpc

#endif // XPC_SIM_CRC_HH
