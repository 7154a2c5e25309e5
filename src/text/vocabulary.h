#ifndef PS2_TEXT_VOCABULARY_H_
#define PS2_TEXT_VOCABULARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace ps2 {

// Dense identifier for a term in the vocabulary. TermId 0 is valid; the
// sentinel kInvalidTerm marks "not in vocabulary".
using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = ~TermId{0};

// The term dictionary shared by dispatchers and workers. It interns term
// strings to dense TermIds and tracks per-term occurrence counts so that:
//  * dispatchers can pick the least frequent keyword of a CNF clause
//    (Section IV-C: "looks up H1 using the least frequent keyword"),
//  * text partitioners can weigh terms by frequency,
//  * hybrid partitioning can build term-frequency vectors for the cosine
//    similarity test.
//
// Frequencies here are corpus statistics (counted over a sample of objects),
// not live counters; the paper's dispatchers likewise rely on a frequency
// profile of the stream.
//
// Concurrency: one owner thread interns and counts, while any number of
// reader threads (a started engine's dispatchers) may call Count,
// LeastFrequent, TermString and size() concurrently. Entries live in
// chunks that are never reallocated, so growth never moves an element a
// reader can reach; counts are relaxed atomics, and each entry points at its
// term's key in the index (map nodes never move either).
class Vocabulary {
 public:
  Vocabulary() = default;
  Vocabulary(const Vocabulary& other) { *this = other; }
  Vocabulary(Vocabulary&& other) noexcept { *this = std::move(other); }
  Vocabulary& operator=(const Vocabulary& other);
  Vocabulary& operator=(Vocabulary&& other) noexcept;

  // Interns `term`, returning its id. Does not change counts.
  TermId Intern(const std::string& term);

  // Returns the id of `term`, or kInvalidTerm if never interned.
  TermId Lookup(const std::string& term) const;

  const std::string& TermString(TermId id) const { return *At(id).term; }

  // Adds `n` observed occurrences of `id`.
  void AddCount(TermId id, uint64_t n = 1);

  uint64_t Count(TermId id) const {
    return id < size() ? At(id).count.load(std::memory_order_relaxed) : 0;
  }

  uint64_t TotalCount() const { return total_count_; }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Returns the TermId with the smallest occurrence count among `ids`
  // (ties broken by smaller id). `ids` must be non-empty.
  TermId LeastFrequent(const std::vector<TermId>& ids) const;

  // Term ids sorted by descending count (rank 0 = most frequent). Recomputed
  // on demand; used by generators and the frequency-based partitioner.
  std::vector<TermId> TermsByFrequency() const;

  // True if `id` ranks within the top `fraction` (e.g. 0.01 = top 1%) most
  // frequent terms. Used by the Q2 generator ("at least one keyword not in
  // the top 1% most frequent terms").
  bool IsTopFraction(TermId id, double fraction) const;

  // Approximate heap footprint in bytes (strings + tables).
  size_t MemoryBytes() const;

 private:
  // Trivially constructible: a fresh chunk stays untouched — and out of
  // the resident set — until Append writes its entries.
  struct Entry {
    const std::string* term;  // key of the term's index_ node
    std::atomic<uint64_t> count;
  };
  // Chunk k holds kFirstChunk << k entries, so 26 chunks cover every TermId.
  static constexpr int kFirstChunkLog2 = 6;
  static constexpr size_t kFirstChunk = size_t{1} << kFirstChunkLog2;
  static constexpr int kChunks = 32 - kFirstChunkLog2;

  static int ChunkOf(size_t id) {
    return 63 - __builtin_clzll(id + kFirstChunk) - kFirstChunkLog2;
  }
  Entry& At(size_t id) const {
    const int k = ChunkOf(id);
    return chunks_[k][id + kFirstChunk - (kFirstChunk << k)];
  }
  // Publishes a new entry (owner thread); readers see it once size() does.
  TermId Append(const std::string* term, uint64_t count);
  void Clear();

  std::unordered_map<std::string, TermId> index_;
  std::unique_ptr<Entry[]> chunks_[kChunks];
  std::atomic<size_t> size_{0};
  uint64_t total_count_ = 0;
};

}  // namespace ps2

#endif  // PS2_TEXT_VOCABULARY_H_
