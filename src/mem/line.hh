/**
 * @file
 * Cache line representation and MOESI coherence states.
 */

#ifndef TLR_MEM_LINE_HH
#define TLR_MEM_LINE_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace tlr
{

/** Data payload of one cache line: 8 x 64-bit words. */
using LineData = std::array<std::uint64_t, wordsPerLine>;

/** MOESI coherence states. */
enum class CohState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Owned,
    Modified,
};

/** States that make this cache the data supplier for the line. */
constexpr bool
isOwnerState(CohState s)
{
    return s == CohState::Modified || s == CohState::Owned ||
           s == CohState::Exclusive;
}

/** States granting write permission without a bus transaction. */
constexpr bool
isWritableState(CohState s)
{
    return s == CohState::Modified || s == CohState::Exclusive;
}

constexpr bool
isValidState(CohState s)
{
    return s != CohState::Invalid;
}

/** Dirty with respect to memory: must write back on eviction. */
constexpr bool
isDirtyState(CohState s)
{
    return s == CohState::Modified || s == CohState::Owned;
}

const char *cohStateName(CohState s);

/**
 * One cache line. The transactional access bits implement the paper's
 * "1 bit per block to track data accessed within transaction"
 * (we keep separate read/write bits so read-read sharing is not a
 * conflict, per the data-conflict definition in the paper's Section 1).
 *
 * The access and pin bits are private: only CacheArray's counted
 * writers set or clear them, so the array's count of lines holding
 * any of them cannot miss a write (DESIGN.md §8).
 */
class CacheLine
{
  public:
    Addr addr = 0;                 ///< line-aligned address (tag)
    CohState state = CohState::Invalid;
    LineData data{};
    std::uint64_t lastUse = 0;     ///< LRU timestamp

    /** Speculatively read in the transaction. */
    bool accessRead() const { return read_; }
    /** Speculatively written in the transaction. */
    bool accessWrite() const { return write_; }
    /** Ineligible for eviction (MSHR/defer). */
    bool pinned() const { return pinned_; }
    bool inTransaction() const { return read_ || write_; }
    /** Any access or pin bit set: what CacheArray counts. */
    bool flagged() const { return read_ || write_ || pinned_; }

  private:
    friend class CacheArray;

    bool read_ = false;
    bool write_ = false;
    bool pinned_ = false;
};

} // namespace tlr

#endif // TLR_MEM_LINE_HH
