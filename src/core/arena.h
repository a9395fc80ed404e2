/**
 * @file
 * Bump-pointer arena for per-image kernel temporaries.
 *
 * The vectorized kernels in nn/kernels.cc stage padded input copies
 * and column scratch buffers per layer; allocating those from the
 * heap on every call dominates small-image runs. An Arena hands out
 * aligned slices of a few large blocks and recycles them wholesale:
 * `reset()` rewinds the bump pointers without returning memory to
 * the operating system, so a forward pass over N layers costs at
 * most a handful of `operator new` calls for the whole run.
 *
 * Not thread-safe by design — each worker owns its own Arena, which
 * is how the parallel driver keeps determinism and avoids
 * synchronisation on the hot path.
 *
 * Layering: core is the bottom module, so this header includes
 * nothing from src/ (tools/check_layering.py).
 */

#ifndef CNV_CORE_ARENA_H
#define CNV_CORE_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace cnv::core {

/**
 * A growable bump allocator. Allocations are served from the current
 * block; when it runs out a new block of at least `blockBytes` is
 * appended (oversized requests get a dedicated block of exactly the
 * requested size). `reset()` makes every block reusable again
 * without freeing; destruction releases everything.
 */
class Arena
{
  public:
    /** Default size of each backing block (1 MiB). */
    static constexpr std::size_t kDefaultBlockBytes = 1u << 20;

    explicit Arena(std::size_t blockBytes = kDefaultBlockBytes)
        : blockBytes_(blockBytes > 0 ? blockBytes : 1) {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Return `bytes` bytes aligned to `align` (a power of two).
     * The memory is uninitialised and stays valid until `reset()`
     * or destruction. Zero-byte requests return a valid aligned
     * pointer that must not be dereferenced.
     */
    void *
    allocate(std::size_t bytes, std::size_t align = alignof(
        std::max_align_t))
    {
        void *p = alignedSlot(bytes, align);
        if (p == nullptr) {
            // Reserve alignment slack: `new std::byte[]` storage is
            // only aligned to the default new alignment, so the
            // block must absorb a worst-case pointer adjustment.
            advance(bytes + align);
            p = alignedSlot(bytes, align);
        }
        return p;
    }

    /**
     * Typed variant: space for `count` objects of trivially-
     * destructible type T (the arena never runs destructors).
     */
    template <typename T>
    T *
    allocate(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena never runs destructors");
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /**
     * Rewind every block for reuse. All pointers previously handed
     * out become invalid; no memory is returned to the system.
     */
    void
    reset()
    {
        for (auto &b : blocks_)
            b->used = 0;
        current_ = 0;
    }

    /** Bytes currently handed out (diagnostics and tests). */
    std::size_t
    bytesUsed() const
    {
        std::size_t n = 0;
        for (const auto &b : blocks_)
            n += b->used;
        return n;
    }

    /** Total capacity of all backing blocks (diagnostics/tests). */
    std::size_t
    bytesReserved() const
    {
        std::size_t n = 0;
        for (const auto &b : blocks_)
            n += b->capacity;
        return n;
    }

    /** Number of backing blocks allocated so far. */
    std::size_t blockCount() const { return blocks_.size(); }

  private:
    /** One backing block: raw storage plus a bump offset. */
    struct Block
    {
        explicit Block(std::size_t cap)
            : storage(new std::byte[cap]), data(storage.get()),
              capacity(cap) {}

        std::unique_ptr<std::byte[]> storage;
        std::byte *data;
        std::size_t capacity;
        std::size_t used = 0;
    };

    /**
     * Carve an aligned slice from the current block, or return
     * nullptr when no block is selected or it cannot fit the
     * request. std::align aligns the *pointer*, not the offset —
     * the block base itself carries no extra alignment guarantee.
     */
    void *
    alignedSlot(std::size_t bytes, std::size_t align)
    {
        if (current_ >= blocks_.size())
            return nullptr;
        Block &b = *blocks_[current_];
        void *p = b.data + b.used;
        std::size_t space = b.capacity - b.used;
        if (std::align(align, bytes, p, space) == nullptr)
            return nullptr;
        b.used = b.capacity - space + bytes;
        return p;
    }

    /**
     * Move to the next block able to serve `need` bytes, appending a
     * fresh block when no reset-recycled one fits. `need` includes
     * alignment slack, so the block found always satisfies the
     * caller after alignUp.
     */
    void
    advance(std::size_t need)
    {
        while (current_ + 1 < blocks_.size()) {
            ++current_;
            if (blocks_[current_]->used == 0 &&
                blocks_[current_]->capacity >= need) {
                return;
            }
        }
        const std::size_t cap =
            need > blockBytes_ ? need : blockBytes_;
        blocks_.push_back(std::make_unique<Block>(cap));
        current_ = blocks_.size() - 1;
    }

    std::size_t blockBytes_;
    std::vector<std::unique_ptr<Block>> blocks_;
    std::size_t current_ = 0;
};

} // namespace cnv::core

#endif // CNV_CORE_ARENA_H
