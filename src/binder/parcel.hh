/**
 * @file
 * Android Binder's Parcel: the typed marshaling container that
 * transact() ships between processes. Data is packed with 4-byte
 * alignment like libbinder's; strings use the length-prefixed UTF-16
 * convention (stored as UTF-8 here, same framing).
 */

#ifndef XPC_BINDER_PARCEL_HH
#define XPC_BINDER_PARCEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xpc::binder {

/** A marshaled message under construction or being read. */
class Parcel
{
  public:
    Parcel() = default;

    /** Wrap received bytes for reading. */
    explicit Parcel(std::vector<uint8_t> bytes)
        : buffer(std::move(bytes))
    {}

    /// @name Writers (append, 4-byte aligned).
    /// @{
    void writeInt32(int32_t value);
    void writeInt64(int64_t value);
    void writeString(const std::string &value);
    void writeBlob(const void *data, uint64_t len);
    /** Marshal an ashmem file descriptor (a kernel object id). */
    void writeFileDescriptor(uint64_t fd);
    /// @}

    /// @name Readers (sequential, matching the writers).
    /// @{
    int32_t readInt32();
    int64_t readInt64();
    std::string readString();
    std::vector<uint8_t> readBlob();
    uint64_t readFileDescriptor();
    /// @}

    const std::vector<uint8_t> &data() const { return buffer; }
    uint64_t size() const { return buffer.size(); }
    bool exhausted() const { return readPos >= buffer.size(); }

    /** Offsets of marshaled file descriptors (the driver translates
     *  these between processes, as Android's binder does). */
    const std::vector<uint64_t> &fdOffsets() const { return fdOffs; }

  private:
    std::vector<uint8_t> buffer;
    std::vector<uint64_t> fdOffs;
    uint64_t readPos = 0;

    void append(const void *data, uint64_t len);
    void pad4();
    void take(void *dst, uint64_t len);
};

} // namespace xpc::binder

#endif // XPC_BINDER_PARCEL_HH
