/** @file Unit tests for the lazily chunked per-line table. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/binio.hh"
#include "util/line_table.hh"

using mpos::util::ByteReader;
using mpos::util::ByteWriter;
using mpos::util::LineTable;

namespace
{

using Table32 = LineTable<uint32_t>;
constexpr uint64_t chunk = Table32::chunkEntries;

/** The dense encoding a flat array of n u32 words would have. */
std::vector<uint8_t>
denseU32(const std::vector<uint32_t> &vals)
{
    ByteWriter w;
    for (uint32_t v : vals)
        w.u32(v);
    return w.take();
}

} // namespace

TEST(LineTable, AbsentEntriesReadZero)
{
    Table32 t(10 * chunk + 7);
    EXPECT_EQ(t.size(), 10 * chunk + 7);
    for (uint64_t i : {uint64_t(0), chunk - 1, 5 * chunk, 10 * chunk + 6})
        EXPECT_EQ(t.get(i), 0u);
    EXPECT_EQ(t.chunks(), 0u);
    EXPECT_EQ(t.bytes(), 0u);

    // Neighbours of a stored entry, in its chunk and the next, stay 0.
    t.set(3 * chunk + 5, 42);
    EXPECT_EQ(t.get(3 * chunk + 5), 42u);
    EXPECT_EQ(t.get(3 * chunk + 4), 0u);
    EXPECT_EQ(t.get(4 * chunk + 5), 0u);
    EXPECT_FALSE(t.allocated(4 * chunk));
    EXPECT_TRUE(t.allocated(3 * chunk));
}

TEST(LineTable, StoringZeroIntoAnAbsentChunkAllocatesNothing)
{
    Table32 t(4 * chunk);
    t.set(0, 0);
    t.set(3 * chunk + 1, 0);
    EXPECT_EQ(t.chunks(), 0u);

    // Once allocated, a chunk stays when its entries return to zero.
    t.set(1, 9);
    t.set(1, 0);
    EXPECT_EQ(t.get(1), 0u);
    EXPECT_EQ(t.chunks(), 1u);
}

TEST(LineTable, ChunkCountAndBytesAreExact)
{
    LineTable<uint64_t> t(64 * chunk);
    // Two stores in chunk 0, one each in chunks 7 and 63, a zero into
    // chunk 20, and ref() (which always allocates) on chunk 30.
    t.set(0, 1);
    t.set(chunk - 1, 2);
    t.set(7 * chunk + 100, 3);
    t.set(63 * chunk + chunk - 1, 4);
    t.set(20 * chunk, 0);
    t.ref(30 * chunk + 2) |= 8;
    EXPECT_EQ(t.chunks(), 4u);
    EXPECT_EQ(t.bytes(), 4 * chunk * sizeof(uint64_t));
    EXPECT_EQ(t.resident(30 * chunk + 2), 8u);
    EXPECT_EQ(t.get(7 * chunk + 100), 3u);

    std::vector<std::pair<uint64_t, uint64_t>> seen;
    t.forEachNonZero(
        [&](uint64_t i, uint64_t v) { seen.emplace_back(i, v); });
    const std::vector<std::pair<uint64_t, uint64_t>> want = {
        {0, 1},
        {chunk - 1, 2},
        {7 * chunk + 100, 3},
        {30 * chunk + 2, 8},
        {63 * chunk + chunk - 1, 4}};
    EXPECT_EQ(seen, want);
}

TEST(LineTable, DenseSaveRestoreRoundTripsAndStaysSparse)
{
    // A partial last chunk exercises the size() bound on the wire.
    const uint64_t n = 6 * chunk + 300;
    Table32 t(n);
    std::vector<uint32_t> flat(n, 0);
    const auto put = [&](uint64_t i, uint32_t v) {
        t.set(i, v);
        flat[i] = v;
    };
    put(5, 0xdeadbeef);
    put(2 * chunk + 17, 7);
    put(6 * chunk + 299, 0x01020304);
    // Chunk 4 is allocated but holds only zeros again.
    put(4 * chunk + 8, 11);
    put(4 * chunk + 8, 0);
    ASSERT_EQ(t.chunks(), 4u);

    ByteWriter w;
    t.save(w);
    EXPECT_EQ(w.bytes(), denseU32(flat));

    // Restore into a table that already holds other chunks: they are
    // replaced, and only chunks with a non-zero value are allocated.
    Table32 back(n);
    back.set(1 * chunk, 99);
    back.set(2 * chunk, 98);
    ByteReader r(w.bytes());
    back.restore(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.chunks(), 3u);
    EXPECT_FALSE(back.allocated(1 * chunk));
    EXPECT_FALSE(back.allocated(4 * chunk));
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(back.get(i), flat[i]) << "entry " << i;

    ByteWriter again;
    back.save(again);
    EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(LineTable, ByteValuesTravelAsRawBytes)
{
    enum class State : uint8_t { Off, A, B };
    LineTable<State> t(2 * LineTable<State>::chunkEntries + 3);
    t.set(1, State::B);
    t.set(2 * LineTable<State>::chunkEntries + 2, State::A);

    ByteWriter w;
    t.save(w);
    ASSERT_EQ(w.size(), t.size());
    EXPECT_EQ(w.bytes()[1], 2);
    EXPECT_EQ(w.bytes()[t.size() - 1], 1);

    LineTable<State> back(t.size());
    ByteReader r(w.bytes());
    back.restore(r);
    EXPECT_EQ(back.chunks(), 2u);
    EXPECT_EQ(back.get(1), State::B);
    EXPECT_EQ(back.get(0), State::Off);
}

TEST(LineTable, TruncatedRestoreRaises)
{
    Table32 t(chunk + 1);
    ByteWriter w;
    t.save(w);
    std::vector<uint8_t> bytes = w.take();
    bytes.pop_back();
    ByteReader r(bytes);
    EXPECT_THROW(t.restore(r), mpos::util::SimError);
}
