#ifndef PS2_INDEX_POSTING_ARENA_H_
#define PS2_INDEX_POSTING_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ps2 {

// Chunked posting-list storage for GI2. Every posting list in an index is a
// singly linked chain of fixed-size chunks drawn from one per-index pool, so
// appending a posting never allocates (beyond pool growth), traversal walks
// 64-byte blocks of 14 slot ids instead of per-list heap vectors, and a
// purged chunk is recycled through a freelist threaded through the `next`
// field — the arena never shrinks, it re-lends.
//
// Lists store 32-bit *query slots* (indices into Gi2Index's dense query
// vector), not 64-bit QueryIds: half the bytes per posting, and the slot is
// exactly what matching needs to reach the query and its dedup mark.
class PostingArena {
 public:
  static constexpr uint32_t kNull = UINT32_MAX;
  // 14 * 4 bytes of slots + next + count = one 64-byte cache line per chunk.
  static constexpr uint32_t kSlotsPerChunk = 14;

  struct Chunk {
    uint32_t next = kNull;   // next chunk in the list, or freelist link
    uint32_t count = 0;      // used slots in this chunk
    uint32_t slots[kSlotsPerChunk];
  };
  static_assert(sizeof(Chunk) == 64, "posting chunk must be one cache line");

  // A posting list: head chunk + total entry count. The head chunk is the
  // only partially filled one; all later chunks are full (appends go to the
  // head, removals backfill from it).
  struct List {
    uint32_t head = kNull;
    uint32_t total = 0;
  };

  Chunk& chunk(uint32_t index) { return chunks_[index]; }
  const Chunk& chunk(uint32_t index) const { return chunks_[index]; }

  // Appends `slot` to `list`, allocating a chunk from the freelist (or the
  // pool) when the head is missing or full.
  void Push(List& list, uint32_t slot) {
    if (list.head == kNull || chunks_[list.head].count == kSlotsPerChunk) {
      const uint32_t fresh = Alloc();
      chunks_[fresh].next = list.head;
      list.head = fresh;
    }
    Chunk& head = chunks_[list.head];
    head.slots[head.count++] = slot;
    ++list.total;
  }

  // Swap-removes the entry at (`chunk_index`, `at`) by backfilling with the
  // last entry of the head chunk; frees the head when it empties. The caller
  // must re-examine index `at` (a different entry now lives there) unless
  // the removed entry was itself the head's last.
  void SwapRemove(List& list, uint32_t chunk_index, uint32_t at) {
    Chunk& head = chunks_[list.head];
    const uint32_t last = --head.count;
    // When the target *is* the head's last entry the swap is a no-op.
    if (chunk_index != list.head || at != last) {
      chunks_[chunk_index].slots[at] = head.slots[last];
    }
    --list.total;
    if (head.count == 0) {
      const uint32_t freed = list.head;
      list.head = head.next;
      Free(freed);
    }
  }

  // Read-only visit of every entry of `list`: f(slot).
  template <typename F>
  void ForEachEntry(const List& list, F&& f) const {
    for (uint32_t ci = list.head; ci != kNull; ci = chunks_[ci].next) {
      const Chunk& chunk = chunks_[ci];
      for (uint32_t i = 0; i < chunk.count; ++i) f(chunk.slots[i]);
    }
  }

  // Swap-removes every entry for which pred(slot) is true. Encapsulates the
  // traversal invariants SwapRemove imposes: each chunk's successor is
  // captured before any removal (a purge can free the head, overwriting its
  // next field), and a backfilled index is re-examined. pred may see an
  // already-visited entry again when the backfill pulls from a traversed
  // chunk — it must be a pure predicate.
  template <typename P>
  void RemoveMatching(List& list, P&& pred) {
    uint32_t ci = list.head;
    while (ci != kNull) {
      const uint32_t next = chunks_[ci].next;
      uint32_t i = 0;
      while (i < chunks_[ci].count) {
        if (pred(chunks_[ci].slots[i])) {
          SwapRemove(list, ci, i);
          continue;
        }
        ++i;
      }
      ci = next;
    }
  }

  // Returns every chunk of `list` to the freelist.
  void FreeList(List& list) {
    while (list.head != kNull) {
      const uint32_t freed = list.head;
      list.head = chunks_[freed].next;
      Free(freed);
    }
    list.total = 0;
  }

  size_t MemoryBytes() const { return chunks_.capacity() * sizeof(Chunk); }

 private:
  uint32_t Alloc() {
    if (free_head_ != kNull) {
      const uint32_t index = free_head_;
      free_head_ = chunks_[index].next;
      chunks_[index].next = kNull;
      chunks_[index].count = 0;
      return index;
    }
    chunks_.emplace_back();
    return static_cast<uint32_t>(chunks_.size() - 1);
  }

  void Free(uint32_t index) {
    chunks_[index].next = free_head_;
    chunks_[index].count = 0;
    free_head_ = index;
  }

  std::vector<Chunk> chunks_;
  uint32_t free_head_ = kNull;
};

}  // namespace ps2

#endif  // PS2_INDEX_POSTING_ARENA_H_
