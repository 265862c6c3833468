/**
 * @file
 * FNV-1a 64-bit, the one non-cryptographic byte hash of the code base:
 * journal record checksums, run-cache shape fingerprints, fleet blob
 * addresses and image content hashes all use it. Parameters are the
 * published ones (offset basis 14695981039346656037, prime
 * 1099511628211), so fnv1a64("") = 0xcbf29ce484222325 and
 * fnv1a64("a") = 0xaf63dc4c8601ec8c.
 */

#ifndef WC3D_COMMON_HASH_HH
#define WC3D_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wc3d {

/** FNV-1a 64 over [@p data, @p data + @p size). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a 64 over the bytes of @p bytes. */
inline std::uint64_t
fnv1a64(std::string_view bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

} // namespace wc3d

#endif // WC3D_COMMON_HASH_HH
