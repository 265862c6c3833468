/**
 * @file
 * Tag-only set-associative cache model. Data contents live in the owning
 * surface/texture objects; the model tracks residency so hit rates and
 * fill/writeback traffic match a real cache's behaviour (paper Table XIV).
 */

#ifndef WC3D_MEMORY_CACHE_HH
#define WC3D_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wc3d::memsys {

/** Outcome of a cache access, including any victim writeback. */
struct CacheAccessResult
{
    bool hit = false;
    /** Address of the line that was filled (line-aligned); 0 on hit. */
    std::uint64_t fillAddress = 0;
    /** True when a dirty victim must be written back. */
    bool writeback = false;
    /** Line-aligned address of the dirty victim (valid when writeback). */
    std::uint64_t writebackAddress = 0;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * A set-associative, write-back, write-allocate cache tag model with
 * exact LRU replacement.
 *
 * Geometry follows the paper's Table XIV notation: "64w x 256B" is a
 * 64-way single-set (fully associative) cache of 256-byte lines;
 * "16w x 16s x 64B" is 16 ways x 16 sets of 64-byte lines.
 *
 * Every access is O(1) in the associativity: an open-addressing table
 * maps a resident line number to its way, and each set keeps its ways
 * on a doubly linked recency list (most recent at the head). A hit
 * moves its way to the head; a miss fills the set's ways in order
 * 0, 1, 2, ... and, once the set is full, evicts the tail.
 */
class CacheModel
{
  public:
    /**
     * @param ways      associativity (> 0)
     * @param sets      number of sets (power of two)
     * @param line_size line size in bytes (power of two)
     */
    CacheModel(int ways, int sets, int line_size);

    /**
     * Access @p address. On a miss the least recently used line of the
     * set is evicted (or the next unfilled way taken) and the line
     * containing the address is installed. @p is_write marks the line
     * dirty on hit or after fill.
     */
    CacheAccessResult access(std::uint64_t address, bool is_write);

    /** @return true when the line holding @p address is resident. */
    bool
    contains(std::uint64_t address) const
    {
        return find(address >> _lineShift) != kNone;
    }

    /**
     * Write back every dirty line (end-of-frame flush), invoking
     * @p writeback_cb with each dirty line address in way order, set by
     * set. Lines stay resident but clean.
     */
    template <typename Fn>
    void
    flushDirty(Fn &&writeback_cb)
    {
        for (auto &line : _lines) {
            if (line.dirty) { // ways never filled are never dirty
                writeback_cb(line.tag << _lineShift);
                line.dirty = false;
                ++_stats.writebacks;
            }
        }
    }

    /** Invalidate everything without writebacks (e.g. after fast clear). */
    void invalidateAll();

    /**
     * Credit @p hits accesses that were filtered before reaching the
     * cache but are guaranteed hits (e.g. intra-quad re-references
     * coalesced by the texture unit): counted as accesses + hits.
     */
    void
    creditFilteredHits(std::uint64_t hits)
    {
        _stats.accesses += hits;
        _stats.hits += hits;
    }

    const CacheStats &stats() const { return _stats; }
    void resetStats() { _stats = CacheStats(); }

    int ways() const { return _ways; }
    int sets() const { return _sets; }
    int lineSize() const { return _lineSize; }
    int sizeBytes() const { return _ways * _sets * _lineSize; }

    /** Line-aligned address for @p address. */
    std::uint64_t
    lineAddress(std::uint64_t address) const
    {
        return address & ~static_cast<std::uint64_t>(_lineSize - 1);
    }

  private:
    static constexpr std::int32_t kNone = -1;

    /** One way; prev/next link the set's recency list by _lines index. */
    struct Line
    {
        std::uint64_t tag = 0;       // full line number (address >> shift)
        std::int32_t prev = kNone;   // more recently used neighbour
        std::int32_t next = kNone;   // less recently used neighbour
        bool dirty = false;
    };

    /** Per-set recency list ends and fill count. */
    struct SetState
    {
        std::int32_t head = kNone;   // most recently used way
        std::int32_t tail = kNone;   // least recently used way
        std::int32_t filled = 0;     // ways 0..filled-1 are valid
    };

    /** Tag-index slot: resident line number -> its _lines index. */
    struct Slot
    {
        std::uint64_t key = 0;
        std::int32_t line = kNone;   // kNone: empty slot
    };

    /** Home slot of @p line_number: Fibonacci hashing (top bits). */
    std::size_t
    home(std::uint64_t line_number) const
    {
        return static_cast<std::size_t>(
            (line_number * 0x9e3779b97f4a7c15ull) >> _indexShift);
    }

    std::int32_t
    find(std::uint64_t line_number) const
    {
        for (std::size_t i = home(line_number);; i = (i + 1) & _indexMask) {
            const Slot &s = _index[i];
            if (s.line == kNone)
                return kNone;
            if (s.key == line_number)
                return s.line;
        }
    }

    void indexInsert(std::uint64_t line_number, std::int32_t line);
    void indexErase(std::uint64_t line_number);
    void unlink(SetState &set, std::int32_t line);
    void pushFront(SetState &set, std::int32_t line);

    int _ways;
    int _sets;
    int _lineSize;
    int _lineShift;
    int _indexShift = 0;
    std::size_t _indexMask = 0;
    std::vector<Line> _lines;     // set-major: set * ways + way
    std::vector<SetState> _setState;
    std::vector<Slot> _index;     // open addressing, linear probing
    CacheStats _stats;
};

} // namespace wc3d::memsys

#endif // WC3D_MEMORY_CACHE_HH
