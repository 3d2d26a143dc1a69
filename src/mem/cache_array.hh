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

    /** Every slot, valid or not, in set-major order. Only the
     *  --check-invariants boundary-clear oracle walks the whole array;
     *  the hot paths look lines up with find(). */
    const std::vector<CacheLine> &lines() const { return lines_; }

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> lineShift) &
                                     (numSets_ - 1));
    }

    unsigned ways_;
    unsigned numSets_;
    std::vector<CacheLine> lines_; // numSets_ * ways_, set-major
};

} // namespace tlr

#endif // TLR_MEM_CACHE_ARRAY_HH
