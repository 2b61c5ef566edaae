/**
 * @file
 * Lazily chunked per-line table: simulator state indexed by physical
 * line, sized by the lines a run actually touches.
 *
 * The coherence state of every L2, the snoop filter and the miss
 * classifier each keep one small value per line of physical memory,
 * yet a run sets only a few percent of them (most lines are never
 * cached by a given CPU). A LineTable splits the index space into
 * fixed chunks of chunkEntries values behind one directory of
 * pointers. An absent chunk reads as zero; the first store of a
 * non-zero value allocates it zero-filled, and it then lives until
 * restore() or destruction. A read is one directory load, one null
 * test and one value load; resident() drops the null test for callers
 * that know the chunk exists (an earlier non-zero store to the same
 * entry).
 *
 * Snapshots stay dense on the wire: save() writes every entry, zeros
 * for absent chunks, exactly as a flat little-endian array would, and
 * restore() allocates only the chunks that hold a non-zero value. An
 * image therefore never depends on which chunks happened to exist.
 */

#ifndef MPOS_UTIL_LINE_TABLE_HH
#define MPOS_UTIL_LINE_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/binio.hh"

namespace mpos::util
{

template <typename T>
class LineTable
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      (sizeof(T) == 1 || sizeof(T) == 4 ||
                       sizeof(T) == 8),
                  "LineTable holds 1-, 4- or 8-byte plain values");

  public:
    static constexpr uint32_t chunkShift = 10;
    static constexpr uint64_t chunkEntries = uint64_t(1) << chunkShift;
    static constexpr uint64_t chunkBytes = chunkEntries * sizeof(T);

    /** A table of n entries, all zero, with no chunk allocated. */
    explicit LineTable(uint64_t n = 0)
        : n_(n), dir((n + chunkEntries - 1) >> chunkShift)
    {
    }

    uint64_t size() const { return n_; }

    /** Entry i (i < size()); zero if its chunk was never stored to. */
    T
    get(uint64_t i) const
    {
        const T *c = dir[i >> chunkShift].get();
        return c ? c[i & chunkMask] : T{};
    }

    /** Entry i for writing; allocates its chunk if absent. */
    T &
    ref(uint64_t i)
    {
        std::unique_ptr<T[]> &c = dir[i >> chunkShift];
        if (!c) [[unlikely]]
            allocate(c);
        return c[i & chunkMask];
    }

    /** Store v at i; a zero into an absent chunk allocates nothing. */
    void
    set(uint64_t i, T v)
    {
        std::unique_ptr<T[]> &c = dir[i >> chunkShift];
        if (!c) {
            if (v == T{})
                return;
            allocate(c);
        }
        c[i & chunkMask] = v;
    }

    /**
     * Entry i when its chunk is known to exist: no null test. Only
     * for hot paths whose invariants imply an earlier non-zero store
     * to i (e.g. an L1 hit implies a non-Invalid L2 state).
     */
    T &
    resident(uint64_t i)
    {
        return dir[i >> chunkShift][i & chunkMask];
    }

    /** True if entry i's chunk exists (a store to i allocates
     *  nothing). */
    bool
    allocated(uint64_t i) const
    {
        return dir[i >> chunkShift] != nullptr;
    }

    /** Chunks currently allocated. */
    uint64_t chunks() const { return nChunks; }

    /** Bytes held by allocated chunks (chunks() x chunkBytes). */
    uint64_t bytes() const { return nChunks * chunkBytes; }

    /** Call fn(i, v) for every non-zero entry, in ascending i. */
    template <typename Fn>
    void
    forEachNonZero(Fn &&fn) const
    {
        for (uint64_t k = 0; k < dir.size(); ++k) {
            const T *c = dir[k].get();
            if (!c)
                continue;
            const uint64_t base = k << chunkShift;
            for (uint64_t j = 0; j < entriesIn(k); ++j) {
                if (c[j] != T{})
                    fn(base + j, c[j]);
            }
        }
    }

    /** Write all size() entries little-endian, zeros for absent
     *  chunks; no count prefix (the caller frames it). */
    void
    save(ByteWriter &w) const
    {
        static const uint8_t zeros[chunkBytes] = {};
        for (uint64_t k = 0; k < dir.size(); ++k) {
            const T *c = dir[k].get();
            const uint64_t m = entriesIn(k);
            if (!c) {
                w.raw(zeros, m * sizeof(T));
            } else if constexpr (sizeof(T) == 1) {
                w.raw(c, m);
            } else {
                for (uint64_t j = 0; j < m; ++j)
                    putWord(w, c[j]);
            }
        }
    }

    /** Read size() entries in save()'s layout, replacing the table;
     *  only chunks holding a non-zero value are allocated. */
    void
    restore(ByteReader &r)
    {
        T buf[chunkEntries] = {};
        for (uint64_t k = 0; k < dir.size(); ++k) {
            const uint64_t m = entriesIn(k);
            if constexpr (sizeof(T) == 1) {
                r.raw(buf, m);
            } else {
                for (uint64_t j = 0; j < m; ++j)
                    buf[j] = getWord(r);
            }
            const bool any = std::any_of(
                buf, buf + m, [](T v) { return v != T{}; });
            if (!any) {
                if (dir[k]) {
                    dir[k].reset();
                    --nChunks;
                }
                continue;
            }
            if (!dir[k])
                allocate(dir[k]);
            std::memcpy(dir[k].get(), buf, m * sizeof(T));
        }
    }

  private:
    static constexpr uint64_t chunkMask = chunkEntries - 1;

    using Word = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;

    /** Entries of chunk k that lie below size() (the last may be
     *  partial). */
    uint64_t
    entriesIn(uint64_t k) const
    {
        return std::min(chunkEntries, n_ - (k << chunkShift));
    }

    void
    allocate(std::unique_ptr<T[]> &c)
    {
        c = std::make_unique<T[]>(chunkEntries);
        ++nChunks;
    }

    static void
    putWord(ByteWriter &w, T v)
    {
        if constexpr (sizeof(T) == 8)
            w.u64(std::bit_cast<Word>(v));
        else
            w.u32(std::bit_cast<Word>(v));
    }

    static T
    getWord(ByteReader &r)
    {
        if constexpr (sizeof(T) == 8)
            return std::bit_cast<T>(r.u64());
        else
            return std::bit_cast<T>(r.u32());
    }

    uint64_t n_;
    /** One pointer per chunkEntries entries; null = all zero. */
    std::vector<std::unique_ptr<T[]>> dir;
    uint64_t nChunks = 0;
};

} // namespace mpos::util

#endif // MPOS_UTIL_LINE_TABLE_HH
