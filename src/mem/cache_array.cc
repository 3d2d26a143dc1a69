#include "mem/cache_array.hh"

#include <functional>

#include "sim/logging.hh"

namespace tlr
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v && !(v & (v - 1));
}

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : ways_(ways)
{
    if (ways == 0 || size_bytes % (ways * lineBytes) != 0)
        fatal("bad cache geometry: %llu bytes / %u ways",
              static_cast<unsigned long long>(size_bytes), ways);
    numSets_ = static_cast<unsigned>(size_bytes / (ways * lineBytes));
    if (!isPow2(numSets_))
        fatal("cache set count %u not a power of two", numSets_);
    lines_.resize(static_cast<size_t>(numSets_) * ways_);
}

CacheLine *
CacheArray::find(Addr line_addr)
{
    CacheLine *base = &lines_[static_cast<size_t>(setIndex(line_addr)) *
                              ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = base[w];
        if (isValidState(l.state) && l.addr == line_addr)
            return &l;
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

CacheLine *
CacheArray::allocateSlot(Addr line_addr)
{
    CacheLine *base = &lines_[static_cast<size_t>(setIndex(line_addr)) *
                              ways_];
    CacheLine *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        CacheLine &l = base[w];
        if (!isValidState(l.state))
            return &l;
        if (l.pinned())
            continue;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    return victim;
}

void
CacheArray::assign(CacheLine &dst, const CacheLine &src)
{
    dst.addr = src.addr;
    dst.state = src.state;
    dst.data = src.data;
    dst.lastUse = src.lastUse;
    setBits(dst, src.read_, src.write_, src.pinned_);
}

void
CacheArray::setBits(CacheLine &l, bool read, bool write, bool pinned)
{
    const bool was = l.flagged();
    l.read_ = read;
    l.write_ = write;
    l.pinned_ = pinned;
    const CacheLine *first = lines_.data();
    if (was == l.flagged() ||
        std::less<const CacheLine *>()(&l, first) ||
        !std::less<const CacheLine *>()(&l, first + lines_.size()))
        return;
    // Clearing a set bit with nothing counted means some copy or
    // write reached the bits without coming through here.
    if (was && flagged_ == 0)
        panic("cache array: line %#llx clears a bit that was never "
              "counted",
              static_cast<unsigned long long>(l.addr));
    flagged_ = was ? flagged_ - 1 : flagged_ + 1;
}

} // namespace tlr
