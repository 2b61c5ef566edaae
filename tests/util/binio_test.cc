/** @file Unit tests for the binary serialization primitives. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/binio.hh"
#include "util/error.hh"

using mpos::util::ByteReader;
using mpos::util::ByteWriter;
using mpos::util::ErrCode;
using mpos::util::SimError;

TEST(BinIo, RoundTripEveryType)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.b(true);
    w.b(false);
    w.f64(3.14159);
    w.str("hello");
    w.str("");
    const uint8_t blob[3] = {1, 2, 3};
    w.raw(blob, sizeof blob);

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    uint8_t out[3] = {};
    r.raw(out, sizeof out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, ZeroLengthRawFromAnEmptyBuffer)
{
    // Both pointers memcpy would see are null here; a zero-length
    // read must not touch either.
    const std::vector<uint8_t> empty;
    ByteReader r(empty);
    std::vector<uint8_t> out;
    r.raw(out.data(), 0);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.offset(), 0u);
}

TEST(BinIo, LittleEndianOnTheWire)
{
    ByteWriter w;
    w.u32(0x11223344);
    const std::vector<uint8_t> &b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0x44);
    EXPECT_EQ(b[1], 0x33);
    EXPECT_EQ(b[2], 0x22);
    EXPECT_EQ(b[3], 0x11);
}

TEST(BinIo, DoublesRoundTripBitExactly)
{
    const double vals[] = {0.0, -0.0, 1.0 / 3.0, 1e-300,
                           std::nan("")};
    ByteWriter w;
    for (double v : vals)
        w.f64(v);
    ByteReader r(w.bytes());
    for (double v : vals) {
        const double got = r.f64();
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(v));
    }
}

TEST(BinIo, TruncatedReadRaisesSnapshotCorrupt)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.bytes());
    r.u16();
    EXPECT_THROW(r.u32(), SimError);
    try {
        ByteReader r2(w.bytes());
        r2.u64();
        FAIL() << "u64 from 4 bytes must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::SnapshotCorrupt);
    }
}

TEST(BinIo, TruncatedStringRaises)
{
    ByteWriter w;
    w.u32(100); // length prefix promising more than exists
    w.u8('x');
    ByteReader r(w.bytes());
    EXPECT_THROW(r.str(), SimError);
}

TEST(BinIo, BadBoolByteRaises)
{
    ByteWriter w;
    w.u8(2);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.b(), SimError);
}

TEST(BinIo, SkipAndSubReader)
{
    ByteWriter w;
    w.u32(1);
    w.u32(2);
    w.u32(3);
    ByteReader r(w.bytes());
    r.skip(4);
    ByteReader inner = r.sub(4);
    EXPECT_EQ(inner.u32(), 2u);
    EXPECT_TRUE(inner.atEnd());
    EXPECT_EQ(r.u32(), 3u);
    EXPECT_THROW(r.skip(1), SimError);
}

TEST(BinIo, PatchU32BackfillsLength)
{
    ByteWriter w;
    const size_t at = w.size();
    w.u32(0); // placeholder
    w.str("payload");
    w.patchU32(at, uint32_t(w.size()));
    ByteReader r(w.bytes());
    EXPECT_EQ(r.u32(), w.size());
    EXPECT_THROW(w.patchU32(w.size() - 2, 1), SimError);
}
