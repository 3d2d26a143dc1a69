/**
 * @file
 * Unit tests for the memory substrate: cache array geometry and LRU,
 * victim cache, merging write buffer, and backing store.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/victim_cache.hh"
#include "mem/write_buffer.hh"

using namespace tlr;

TEST(CacheArray, GeometryValidation)
{
    CacheArray ok(128 * 1024, 4);
    EXPECT_EQ(ok.numSets(), 128u * 1024 / (4 * lineBytes));
    EXPECT_THROW(CacheArray(1000, 3), std::runtime_error);
    EXPECT_THROW(CacheArray(128 * 1024, 0), std::runtime_error);
}

TEST(CacheArray, FindAfterInstall)
{
    CacheArray c(8 * 1024, 2);
    Addr a = 0x1000;
    CacheLine *slot = c.allocateSlot(a);
    ASSERT_NE(slot, nullptr);
    slot->addr = a;
    slot->state = CohState::Shared;
    slot->data[3] = 99;
    CacheLine *found = c.find(a);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->data[3], 99u);
    EXPECT_EQ(c.find(0x2000), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    // 2-way cache: fill a set, then confirm the LRU way is chosen.
    CacheArray c(2 * lineBytes * 4, 2); // 4 sets, 2 ways
    unsigned set_span = c.numSets() * lineBytes;
    Addr a0 = 0x0, a1 = a0 + set_span, a2 = a1 + set_span; // same set
    auto install = [&](Addr a, std::uint64_t use) {
        CacheLine *s = c.allocateSlot(a);
        s->addr = a;
        s->state = CohState::Shared;
        c.touch(*s, use);
        return s;
    };
    install(a0, 10);
    install(a1, 20);
    CacheLine *victim = c.allocateSlot(a2);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->addr, a0); // least recently used
}

TEST(CacheArray, PinnedLinesAreNotEvicted)
{
    CacheArray c(2 * lineBytes * 1, 2); // 1 set, 2 ways
    auto install = [&](Addr a, bool pinned) {
        CacheLine *s = c.allocateSlot(a);
        s->addr = a;
        s->state = CohState::Modified;
        if (pinned)
            c.pin(*s);
        return s;
    };
    install(0x000, true);
    CacheLine *b = install(0x040, true);
    EXPECT_EQ(b->addr, 0x040u);
    EXPECT_EQ(c.allocateSlot(0x080), nullptr); // everything pinned
    c.unpin(*b);
    CacheLine *v = c.allocateSlot(0x080);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->addr, 0x040u);
}

TEST(CacheArray, CountsSlotsHoldingAccessOrPinBits)
{
    CacheArray c(2 * lineBytes * 4, 2); // 4 sets, 2 ways
    auto install = [&](Addr a) {
        CacheLine *s = c.allocateSlot(a);
        s->addr = a;
        s->state = CohState::Exclusive;
        return s;
    };
    CacheLine *a = install(0x000);
    CacheLine *b = install(0x040);
    // A slot counts once, whichever bits it holds.
    c.markRead(*a);
    c.markWrite(*a);
    c.pin(*a);
    EXPECT_EQ(c.flaggedLines(), 1u);
    c.pin(*b);
    EXPECT_EQ(c.flaggedLines(), 2u);
    c.clearAccess(*a);
    EXPECT_EQ(c.flaggedLines(), 2u); // a keeps its pin
    c.unpin(*a);
    c.unpin(*b);
    EXPECT_EQ(c.flaggedLines(), 0u);

    // A victim-cache entry is written but not counted; copying it back
    // into a slot counts the slot, and invalidating the slot uncounts it.
    CacheLine outside;
    outside.addr = 0x080;
    outside.state = CohState::Modified;
    c.markWrite(outside);
    EXPECT_TRUE(outside.accessWrite());
    EXPECT_EQ(c.flaggedLines(), 0u);
    CacheLine *slot = c.allocateSlot(0x080);
    c.invalidate(*slot);
    c.assign(*slot, outside);
    EXPECT_EQ(c.find(0x080), slot);
    EXPECT_TRUE(slot->accessWrite());
    EXPECT_EQ(c.flaggedLines(), 1u);
    c.invalidate(*slot);
    EXPECT_FALSE(slot->flagged());
    EXPECT_EQ(c.flaggedLines(), 0u);
}

TEST(CacheArray, InjectedBitIsCountedAndNamedByTheScan)
{
    // The boundary-clear oracle's two halves: a bit set through a
    // counted writer makes the count non-zero, and a walk of lines()
    // finds the slot that holds it.
    CacheArray c(2 * lineBytes * 4, 2);
    CacheLine *s = c.allocateSlot(0x0c0);
    s->addr = 0x0c0;
    s->state = CohState::Modified;
    c.markRead(*s);
    ASSERT_EQ(c.flaggedLines(), 1u);
    std::vector<Addr> named;
    for (const CacheLine &l : c.lines())
        if (l.flagged() && isValidState(l.state))
            named.push_back(l.addr);
    EXPECT_EQ(named, std::vector<Addr>{0x0c0});
}

TEST(CacheArray, ClearingAnUncountedBitPanics)
{
    // A plain copy of a marked line into a slot bypasses the count;
    // the counted clear that follows must refuse to go below zero.
    CacheArray c(2 * lineBytes * 4, 2);
    CacheLine marked;
    c.markRead(marked); // not a slot: not counted
    CacheLine *s = c.allocateSlot(0x000);
    *s = marked;
    s->addr = 0x000;
    s->state = CohState::Shared;
    EXPECT_EQ(c.flaggedLines(), 0u);
    EXPECT_THROW(c.clearAccess(*s), std::logic_error);
}

TEST(VictimCache, InsertFindEraseAndCapacity)
{
    VictimCache v(2);
    CacheLine l;
    l.addr = 0x100;
    l.state = CohState::Modified;
    EXPECT_TRUE(v.insert(l));
    l.addr = 0x200;
    EXPECT_TRUE(v.insert(l));
    l.addr = 0x300;
    EXPECT_FALSE(v.insert(l)); // full
    ASSERT_NE(v.find(0x100), nullptr);
    v.erase(0x100);
    EXPECT_EQ(v.find(0x100), nullptr);
    EXPECT_TRUE(v.insert(l)); // space again
}

TEST(WriteBuffer, MergesWritesPerLine)
{
    WriteBuffer wb(2);
    EXPECT_TRUE(wb.write(0x1000, 1));
    EXPECT_TRUE(wb.write(0x1008, 2)); // same line: merges
    EXPECT_EQ(wb.lineCount(), 1u);
    EXPECT_TRUE(wb.write(0x2000, 3));
    EXPECT_EQ(wb.lineCount(), 2u);
    EXPECT_FALSE(wb.write(0x3000, 4)); // capacity = unique lines
    // Rewriting an existing line is always allowed.
    EXPECT_TRUE(wb.write(0x1000, 9));
    EXPECT_EQ(wb.read(0x1000), std::optional<std::uint64_t>(9));
    EXPECT_EQ(wb.read(0x1008), std::optional<std::uint64_t>(2));
    EXPECT_EQ(wb.read(0x1010), std::nullopt); // word not written
    EXPECT_EQ(wb.read(0x4000), std::nullopt);
    wb.clear();
    EXPECT_EQ(wb.lineCount(), 0u);
}

TEST(BackingStore, WordAndLineAccess)
{
    BackingStore bs(1024);
    EXPECT_EQ(bs.readWord(0x1000), 0u);
    bs.writeWord(0x1008, 55);
    EXPECT_EQ(bs.readWord(0x1008), 55u);
    LineData ld = bs.readLine(0x1000);
    EXPECT_EQ(ld[1], 55u);
    ld[2] = 66;
    bs.writeLine(0x1000, ld);
    EXPECT_EQ(bs.readWord(0x1010), 66u);
}

TEST(BackingStore, L2FilterTracksRecency)
{
    BackingStore bs(2);
    EXPECT_FALSE(bs.accessL2(0x000)); // cold
    EXPECT_TRUE(bs.accessL2(0x000));  // warm
    bs.accessL2(0x040);
    bs.accessL2(0x080); // exceeds capacity: filter resets
    EXPECT_TRUE(bs.accessL2(0x080));
}
