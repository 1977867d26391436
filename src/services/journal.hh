/**
 * @file
 * The shared write-ahead journal codec under the storage stack.
 *
 * Both stateful services commit through this layer: xv6fs's on-disk
 * log header and MiniDb's WAL-mode journal are encoded as a
 * checksummed commit record - {magic, n, seq, per-entry {no, crc},
 * header crc} - followed (elsewhere on the device) by the n payload
 * images the entries describe. The commit record is the atomic
 * point: recovery decodes it, rejects anything torn (bad magic, bad
 * header crc, an entry crc that does not match its payload), and
 * replays intact commits idempotently. A commit whose record never
 * became valid simply never happened, which is exactly the
 * committed-durable / uncommitted-absent invariant the crash
 * explorer asserts at every enumerated crash point.
 */

#ifndef XPC_SERVICES_JOURNAL_HH
#define XPC_SERVICES_JOURNAL_HH

#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/crc.hh"

namespace xpc::services::journal {

/** Commit-record magic ("WAL1"). */
constexpr uint32_t walMagic = 0x57414c31;

/** One journaled payload: block/page @p no and its xpc::crc32. */
struct WalEntry
{
    uint32_t no = 0;
    uint32_t crc = 0;
};

/**
 * The checksummed commit record. Encode writes it as:
 *   u32 magic | u32 n | u64 seq | n x {u32 no, u32 crc} | u32 hcrc
 * where hcrc covers every preceding byte. Decode validates all of
 * that and refuses anything torn.
 */
struct WalHeader
{
    uint64_t seq = 0;
    std::vector<WalEntry> entries;

    /** Encoded size of a record with @p n entries. */
    static constexpr size_t
    encodedBytes(size_t n)
    {
        return 4 + 4 + 8 + n * 8 + 4;
    }

    size_t encodedBytes() const { return encodedBytes(entries.size()); }

    /** Serialize (with checksums) into @p out, which is resized. */
    void encodeTo(std::vector<uint8_t> *out) const;

    /**
     * Decode and validate a commit record from @p raw. @return true
     * iff the record is intact (magic, bounds and header crc all
     * check out); any torn or stale record decodes to false.
     */
    static bool decode(const uint8_t *raw, size_t len, WalHeader *out);
};

/** Does @p payload match entry @p e (its crc)? */
bool walPayloadMatches(const WalEntry &e, const void *payload,
                       size_t payload_len);

} // namespace xpc::services::journal

#endif // XPC_SERVICES_JOURNAL_HH
