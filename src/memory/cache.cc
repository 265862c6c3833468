#include "memory/cache.hh"

#include <bit>

#include "common/log.hh"

namespace wc3d::memsys {

namespace {
bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}
} // namespace

CacheModel::CacheModel(int ways, int sets, int line_size)
    : _ways(ways), _sets(sets), _lineSize(line_size),
      _lineShift(std::countr_zero(static_cast<unsigned>(line_size))),
      _lines(static_cast<std::size_t>(ways) * sets),
      _setState(static_cast<std::size_t>(sets))
{
    WC3D_ASSERT(ways > 0);
    WC3D_ASSERT(isPow2(sets));
    WC3D_ASSERT(isPow2(line_size));
    // At most half the index slots are ever used, so probe runs stay
    // short and an empty slot always ends a probe.
    std::size_t slots = std::bit_ceil(_lines.size() * 2);
    _indexShift = 64 - std::countr_zero(slots);
    _indexMask = slots - 1;
    _index.resize(slots);
}

void
CacheModel::indexInsert(std::uint64_t line_number, std::int32_t line)
{
    std::size_t i = home(line_number);
    while (_index[i].line != kNone)
        i = (i + 1) & _indexMask;
    _index[i] = {line_number, line};
}

void
CacheModel::indexErase(std::uint64_t line_number)
{
    std::size_t hole = home(line_number);
    while (_index[hole].key != line_number || _index[hole].line == kNone)
        hole = (hole + 1) & _indexMask;
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless that would move one before its home slot.
    for (std::size_t j = (hole + 1) & _indexMask; _index[j].line != kNone;
         j = (j + 1) & _indexMask) {
        std::size_t h = home(_index[j].key);
        if (((j - h) & _indexMask) >= ((j - hole) & _indexMask)) {
            _index[hole] = _index[j];
            hole = j;
        }
    }
    _index[hole].line = kNone;
}

void
CacheModel::unlink(SetState &set, std::int32_t line)
{
    Line &l = _lines[static_cast<std::size_t>(line)];
    if (l.prev != kNone)
        _lines[static_cast<std::size_t>(l.prev)].next = l.next;
    else
        set.head = l.next;
    if (l.next != kNone)
        _lines[static_cast<std::size_t>(l.next)].prev = l.prev;
    else
        set.tail = l.prev;
}

void
CacheModel::pushFront(SetState &set, std::int32_t line)
{
    Line &l = _lines[static_cast<std::size_t>(line)];
    l.prev = kNone;
    l.next = set.head;
    if (set.head != kNone)
        _lines[static_cast<std::size_t>(set.head)].prev = line;
    else
        set.tail = line;
    set.head = line;
}

CacheAccessResult
CacheModel::access(std::uint64_t address, bool is_write)
{
    CacheAccessResult result;
    std::uint64_t line_number = address >> _lineShift;
    std::size_t set_index =
        static_cast<std::size_t>(line_number & (_sets - 1));
    SetState &set = _setState[set_index];
    ++_stats.accesses;

    std::int32_t idx = find(line_number);
    if (idx != kNone) {
        result.hit = true;
        ++_stats.hits;
        if (is_write)
            _lines[static_cast<std::size_t>(idx)].dirty = true;
        if (set.head != idx) {
            unlink(set, idx);
            pushFront(set, idx);
        }
        return result;
    }

    ++_stats.misses;
    if (set.filled < _ways) {
        idx = static_cast<std::int32_t>(set_index) * _ways + set.filled++;
    } else {
        idx = set.tail;
        Line &victim = _lines[static_cast<std::size_t>(idx)];
        if (victim.dirty) {
            result.writeback = true;
            result.writebackAddress = victim.tag << _lineShift;
            ++_stats.writebacks;
        }
        indexErase(victim.tag);
        unlink(set, idx);
    }
    Line &line = _lines[static_cast<std::size_t>(idx)];
    line.dirty = is_write;
    line.tag = line_number;
    indexInsert(line_number, idx);
    pushFront(set, idx);
    result.fillAddress = line_number << _lineShift;
    return result;
}

void
CacheModel::invalidateAll()
{
    for (auto &line : _lines)
        line = Line();
    for (auto &set : _setState)
        set = SetState();
    for (auto &slot : _index)
        slot = Slot();
}

} // namespace wc3d::memsys
