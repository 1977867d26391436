#include "journal.hh"

#include <cstring>

namespace xpc::services::journal {

void
WalHeader::encodeTo(std::vector<uint8_t> *out) const
{
    out->resize(encodedBytes());
    uint8_t *p = out->data();
    uint32_t magic = walMagic;
    uint32_t n = uint32_t(entries.size());
    std::memcpy(p, &magic, 4);
    std::memcpy(p + 4, &n, 4);
    std::memcpy(p + 8, &seq, 8);
    for (size_t i = 0; i < entries.size(); i++) {
        std::memcpy(p + 16 + i * 8, &entries[i].no, 4);
        std::memcpy(p + 16 + i * 8 + 4, &entries[i].crc, 4);
    }
    uint32_t hcrc = xpc::crc32(p, out->size() - 4);
    std::memcpy(p + out->size() - 4, &hcrc, 4);
}

bool
WalHeader::decode(const uint8_t *raw, size_t len, WalHeader *out)
{
    if (len < encodedBytes(0))
        return false;
    uint32_t magic, n;
    std::memcpy(&magic, raw, 4);
    if (magic != walMagic)
        return false;
    std::memcpy(&n, raw + 4, 4);
    size_t need = encodedBytes(n);
    if (n == 0 || need > len)
        return false;
    uint32_t hcrc, want;
    std::memcpy(&hcrc, raw + need - 4, 4);
    want = xpc::crc32(raw, need - 4);
    if (hcrc != want)
        return false;
    out->entries.clear();
    std::memcpy(&out->seq, raw + 8, 8);
    out->entries.resize(n);
    for (uint32_t i = 0; i < n; i++) {
        std::memcpy(&out->entries[i].no, raw + 16 + i * 8, 4);
        std::memcpy(&out->entries[i].crc, raw + 16 + i * 8 + 4, 4);
    }
    return true;
}

bool
walPayloadMatches(const WalEntry &e, const void *payload,
                  size_t payload_len)
{
    return xpc::crc32(payload, payload_len) == e.crc;
}

} // namespace xpc::services::journal
