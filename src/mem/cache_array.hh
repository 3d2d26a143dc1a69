/**
 * @file
 * Set-associative cache data array with LRU replacement.
 */

#ifndef TLR_MEM_CACHE_ARRAY_HH
#define TLR_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "mem/line.hh"
#include "sim/types.hh"

namespace tlr
{

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     */
    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /** Find a valid line; nullptr on miss. Does not touch LRU. */
    CacheLine *find(Addr line_addr);
    const CacheLine *find(Addr line_addr) const;

    /** Update LRU on access. */
    void touch(CacheLine &line, std::uint64_t use_tick)
    {
        line.lastUse = use_tick;
    }

    /**
     * Pick a slot for @p line_addr. Prefers an invalid way, else the
     * LRU non-pinned way. Returns nullptr when every way is pinned
     * (caller treats as a structural/resource condition).
     * The returned slot may still hold a valid victim line; the caller
     * must handle the eviction before overwriting.
     */
    CacheLine *allocateSlot(Addr line_addr);

    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return ways_; }

    /** @{ The counted writers: the only code that sets or clears a
     *  line's access and pin bits. @p l may also be a victim-cache
     *  entry, which is written the same way but not counted: the
     *  count covers this array's slots only. */
    void markRead(CacheLine &l) { setBits(l, true, l.write_, l.pinned_); }
    void markWrite(CacheLine &l) { setBits(l, l.read_, true, l.pinned_); }
    void pin(CacheLine &l) { setBits(l, l.read_, l.write_, true); }
    void unpin(CacheLine &l) { setBits(l, l.read_, l.write_, false); }
    void clearAccess(CacheLine &l) { setBits(l, false, false, l.pinned_); }
    /** The line leaves the cache: Invalid, every bit clear. */
    void
    invalidate(CacheLine &l)
    {
        l.state = CohState::Invalid;
        setBits(l, false, false, false);
    }
    /** Copy @p src, bits included, into @p dst. */
    void assign(CacheLine &dst, const CacheLine &src);
    /** @} */

    /** Slots with any access or pin bit set, kept by the writers
     *  above: zero after every correct transaction boundary, so the
     *  boundary-clear oracle checks it in O(1). */
    std::uint64_t flaggedLines() const { return flagged_; }

    /** Every slot, valid or not, in set-major order. Only the
     *  boundary-clear oracle walks the whole array, and only when
     *  flaggedLines() is not zero, to name the lines that kept a bit;
     *  the hot paths look lines up with find(). */
    const std::vector<CacheLine> &lines() const { return lines_; }

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> lineShift) &
                                     (numSets_ - 1));
    }

    /** Write all three bits of @p l and keep flagged_ in step. */
    void setBits(CacheLine &l, bool read, bool write, bool pinned);

    unsigned ways_;
    unsigned numSets_;
    std::vector<CacheLine> lines_; // numSets_ * ways_, set-major
    std::uint64_t flagged_ = 0;
};

} // namespace tlr

#endif // TLR_MEM_CACHE_ARRAY_HH
