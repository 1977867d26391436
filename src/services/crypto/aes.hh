/**
 * @file
 * AES-128 (FIPS-197): key expansion, block encrypt/decrypt, and
 * CBC-mode helpers. This is a complete software implementation used
 * by the crypto service of the paper's web-server experiment; the
 * bytes are computed for real and the simulated compute cost is
 * charged per byte by the caller (costCycles), independent of how
 * the host computes them.
 *
 * Encryption runs on four 32-bit T-tables (4 KiB, built at compile
 * time from the S-box): each round is 16 lookups and XORs over four
 * little-endian column words. Its ciphertext is bit-identical to the
 * byte-wise FIPS-197 rounds, which the tests keep as an independent
 * reference, alongside the FIPS-197 and NIST SP 800-38A vectors.
 * Decryption stays byte-wise: no workload decrypts on a hot path.
 */

#ifndef XPC_SERVICES_CRYPTO_AES_HH
#define XPC_SERVICES_CRYPTO_AES_HH

#include <array>
#include <cstdint>
#include <cstddef>

namespace xpc::services::crypto {

/** AES-128 cipher context with a precomputed key schedule. */
class Aes128
{
  public:
    static constexpr size_t blockBytes = 16;
    static constexpr size_t keyBytes = 16;

    /** Expand @p key into the round-key schedule. */
    explicit Aes128(const uint8_t key[keyBytes]);

    /** Encrypt one 16-byte block (ECB primitive). */
    void encryptBlock(const uint8_t in[blockBytes],
                      uint8_t out[blockBytes]) const;

    /** Decrypt one 16-byte block. */
    void decryptBlock(const uint8_t in[blockBytes],
                      uint8_t out[blockBytes]) const;

    /**
     * CBC-encrypt @p len bytes in place. Only whole blocks are
     * encrypted; a trailing partial block is left untouched (callers
     * zero-pad).
     */
    void encryptCbc(uint8_t *data, size_t len,
                    const uint8_t iv[blockBytes]) const;

    /** CBC-decrypt @p len bytes in place. */
    void decryptCbc(uint8_t *data, size_t len,
                    const uint8_t iv[blockBytes]) const;

    /**
     * Simulated cost of processing @p len bytes on an in-order core
     * (an optimized T-table implementation runs at roughly a dozen
     * cycles per byte).
     */
    static uint64_t
    costCycles(uint64_t len)
    {
        return len * 12;
    }

  private:
    static constexpr int rounds = 10;
    std::array<uint32_t, 4 * (rounds + 1)> roundKeys;

    /** Encrypt one block held as four little-endian column words. */
    void encryptWords(uint32_t w[4]) const;
};

} // namespace xpc::services::crypto

#endif // XPC_SERVICES_CRYPTO_AES_HH
