/**
 * @file
 * Two-level texture cache, as in the ATTILA architecture the paper
 * simulates: "The texture cache implements two levels: level 0 stores
 * uncompressed data and level 1 stores compressed data." L0 is tagged
 * in the decompressed (virtual) address space; an L0 miss accesses L1
 * in the compressed address space; an L1 miss reads one line from GDDR,
 * charged to the Texture client.
 */

#ifndef WC3D_TEXTURE_TEXCACHE_HH
#define WC3D_TEXTURE_TEXCACHE_HH

#include "memory/cache.hh"
#include "memory/controller.hh"
#include "texture/sampler.hh"

namespace wc3d::tex {

/** Geometry of the two texture cache levels (paper Table XIV). */
struct TexCacheConfig
{
    int l0Ways = 64;  ///< "4 KB, 64w x 64B" fully associative
    int l0Sets = 1;
    int l0Line = 64;
    int l1Ways = 16;  ///< "16 KB, 16w x 16s x 64B"
    int l1Sets = 16;
    int l1Line = 64;
};

/**
 * The texture cache hierarchy. Receives distinct-block accesses from
 * the Sampler and models residency and memory traffic.
 */
class TextureCache : public TexelAccessListener
{
  public:
    TextureCache(const TexCacheConfig &config,
                 memsys::MemoryController *memory);

    /** Resolve the block's addresses and access(). */
    void blockAccess(const Texture2D &texture, int level, int bx,
                     int by, int refs) override;

    /**
     * Access one texel block by its resolved addresses: @p vaddr in the
     * decompressed (L0) space, @p maddr in the compressed (L1) space
     * (Texture2D::blockVirtualAddress / blockMemAddress). @p refs taps
     * of the quad referenced the block; all but the first are credited
     * as L0 hits.
     */
    void access(std::uint64_t vaddr, std::uint64_t maddr, int refs);

    const memsys::CacheStats &l0Stats() const { return _l0.stats(); }
    const memsys::CacheStats &l1Stats() const { return _l1.stats(); }
    const memsys::CacheModel &l0() const { return _l0; }
    const memsys::CacheModel &l1() const { return _l1; }

    void resetStats();

    /** Drop all residency (e.g. between independent runs). */
    void invalidate();

  private:
    memsys::CacheModel _l0;
    memsys::CacheModel _l1;
    memsys::MemoryController *_memory;
};

} // namespace wc3d::tex

#endif // WC3D_TEXTURE_TEXCACHE_HH
