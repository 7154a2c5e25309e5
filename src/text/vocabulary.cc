#include "text/vocabulary.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace ps2 {

Vocabulary& Vocabulary::operator=(const Vocabulary& other) {
  if (this == &other) return *this;
  Clear();
  index_ = other.index_;
  for (size_t i = 0; i < other.size(); ++i) {
    Append(nullptr, other.Count(static_cast<TermId>(i)));
  }
  for (const auto& [term, id] : index_) At(id).term = &term;
  total_count_ = other.total_count_;
  return *this;
}

Vocabulary& Vocabulary::operator=(Vocabulary&& other) noexcept {
  if (this == &other) return *this;
  index_ = std::move(other.index_);
  for (int k = 0; k < kChunks; ++k) chunks_[k] = std::move(other.chunks_[k]);
  size_.store(other.size_.exchange(0), std::memory_order_release);
  total_count_ = std::exchange(other.total_count_, 0);
  other.index_.clear();
  return *this;
}

void Vocabulary::Clear() {
  index_.clear();
  for (auto& chunk : chunks_) chunk.reset();
  size_.store(0, std::memory_order_release);
  total_count_ = 0;
}

TermId Vocabulary::Append(const std::string* term, uint64_t count) {
  static_assert(std::is_trivially_default_constructible_v<Entry>);
  const size_t id = size_.load(std::memory_order_relaxed);
  const int k = ChunkOf(id);
  if (chunks_[k] == nullptr) chunks_[k].reset(new Entry[kFirstChunk << k]);
  Entry& e = At(id);
  e.term = term;
  e.count.store(count, std::memory_order_relaxed);
  size_.store(id + 1, std::memory_order_release);
  return static_cast<TermId>(id);
}

TermId Vocabulary::Intern(const std::string& term) {
  auto [it, inserted] = index_.try_emplace(term, 0);
  if (inserted) it->second = Append(&it->first, 0);
  return it->second;
}

TermId Vocabulary::Lookup(const std::string& term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTerm : it->second;
}

void Vocabulary::AddCount(TermId id, uint64_t n) {
  if (id >= size()) return;
  std::atomic<uint64_t>& count = At(id).count;
  count.store(count.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
  total_count_ += n;
}

TermId Vocabulary::LeastFrequent(const std::vector<TermId>& ids) const {
  TermId best = ids.front();
  uint64_t best_count = Count(best);
  for (const TermId id : ids) {
    const uint64_t c = Count(id);
    if (c < best_count || (c == best_count && id < best)) {
      best = id;
      best_count = c;
    }
  }
  return best;
}

std::vector<TermId> Vocabulary::TermsByFrequency() const {
  std::vector<TermId> ids(size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TermId>(i);
  std::sort(ids.begin(), ids.end(), [this](TermId a, TermId b) {
    if (Count(a) != Count(b)) return Count(a) > Count(b);
    return a < b;
  });
  return ids;
}

bool Vocabulary::IsTopFraction(TermId id, double fraction) const {
  const size_t n = size();
  if (id >= n) return false;
  const uint64_t c = Count(id);
  // Count how many terms are strictly more frequent; that is the rank.
  size_t rank = 0;
  for (size_t i = 0; i < n; ++i) {
    if (Count(static_cast<TermId>(i)) > c) ++rank;
  }
  return rank < static_cast<size_t>(fraction * n);
}

size_t Vocabulary::MemoryBytes() const {
  size_t bytes = size() * sizeof(Entry);
  for (const auto& [t, id] : index_) {
    // Hash-map entry: key string + id + bucket overhead (approximation).
    bytes += sizeof(std::string) + t.capacity() + sizeof(TermId) + 16;
  }
  return bytes;
}

}  // namespace ps2
