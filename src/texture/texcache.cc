#include "texture/texcache.hh"

#include "common/log.hh"

namespace wc3d::tex {

TextureCache::TextureCache(const TexCacheConfig &config,
                           memsys::MemoryController *memory)
    : _l0(config.l0Ways, config.l0Sets, config.l0Line),
      _l1(config.l1Ways, config.l1Sets, config.l1Line),
      _memory(memory)
{
}

void
TextureCache::blockAccess(const Texture2D &texture, int level, int bx,
                          int by, int refs)
{
    WC3D_ASSERT(texture.memoryBound());
    access(texture.blockVirtualAddress(level, bx, by),
           texture.blockMemAddress(level, bx, by), refs);
}

void
TextureCache::access(std::uint64_t vaddr, std::uint64_t maddr, int refs)
{
    auto r0 = _l0.access(vaddr, false);
    // The quad's further taps of the same block are guaranteed hits;
    // credit them so hit rates use per-tap semantics.
    if (refs > 1)
        _l0.creditFilteredHits(refs - 1);
    if (r0.hit)
        return;

    // L0 fill: fetch the compressed block through L1. A 4x4 block is at
    // most one L1 line (8/16B DXT, 64B RGBA8), so a single access
    // suffices.
    auto r1 = _l1.access(maddr, false);
    if (!r1.hit && _memory)
        _memory->read(memsys::Client::Texture,
                      static_cast<std::uint64_t>(_l1.lineSize()));
}

void
TextureCache::resetStats()
{
    _l0.resetStats();
    _l1.resetStats();
}

void
TextureCache::invalidate()
{
    _l0.invalidateAll();
    _l1.invalidateAll();
}

} // namespace wc3d::tex
