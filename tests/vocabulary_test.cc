#include "text/vocabulary.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace ps2 {
namespace {

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  const TermId a = v.Intern("kobe");
  const TermId b = v.Intern("kobe");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.TermString(a), "kobe");
}

TEST(VocabularyTest, LookupUnknown) {
  Vocabulary v;
  v.Intern("a");
  EXPECT_EQ(v.Lookup("b"), kInvalidTerm);
  EXPECT_NE(v.Lookup("a"), kInvalidTerm);
}

TEST(VocabularyTest, CountsAccumulate) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  v.AddCount(a, 3);
  v.AddCount(b);
  EXPECT_EQ(v.Count(a), 3u);
  EXPECT_EQ(v.Count(b), 1u);
  EXPECT_EQ(v.TotalCount(), 4u);
  EXPECT_EQ(v.Count(999), 0u);  // unknown id
}

TEST(VocabularyTest, LeastFrequentPicksMinimum) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  const TermId c = v.Intern("c");
  v.AddCount(a, 10);
  v.AddCount(b, 2);
  v.AddCount(c, 5);
  EXPECT_EQ(v.LeastFrequent({a, b, c}), b);
  EXPECT_EQ(v.LeastFrequent({a}), a);
}

TEST(VocabularyTest, LeastFrequentTieBreaksBySmallerId) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  v.AddCount(a, 2);
  v.AddCount(b, 2);
  EXPECT_EQ(v.LeastFrequent({b, a}), std::min(a, b));
}

TEST(VocabularyTest, TermsByFrequencyDescending) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  const TermId c = v.Intern("c");
  v.AddCount(a, 1);
  v.AddCount(b, 9);
  v.AddCount(c, 5);
  const auto order = v.TermsByFrequency();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], b);
  EXPECT_EQ(order[1], c);
  EXPECT_EQ(order[2], a);
}

TEST(VocabularyTest, IsTopFraction) {
  Vocabulary v;
  // 100 terms, counts 100..1.
  std::vector<TermId> ids;
  for (int i = 0; i < 100; ++i) {
    const TermId t = v.Intern("t" + std::to_string(i));
    v.AddCount(t, 100 - i);
    ids.push_back(t);
  }
  EXPECT_TRUE(v.IsTopFraction(ids[0], 0.01));    // rank 0 in top 1%
  EXPECT_FALSE(v.IsTopFraction(ids[1], 0.01));   // rank 1 not in top 1%
  EXPECT_TRUE(v.IsTopFraction(ids[9], 0.50));
  EXPECT_FALSE(v.IsTopFraction(ids[99], 0.50));
}

TEST(VocabularyTest, MemoryGrowsWithTerms) {
  Vocabulary v;
  const size_t empty = v.MemoryBytes();
  for (int i = 0; i < 100; ++i) v.Intern("term" + std::to_string(i));
  EXPECT_GT(v.MemoryBytes(), empty);
}

TEST(VocabularyTest, CopyAndMoveKeepTermsAndCounts) {
  Vocabulary v;
  for (int i = 0; i < 300; ++i) {
    v.AddCount(v.Intern("t" + std::to_string(i)), static_cast<uint64_t>(i));
  }
  const Vocabulary copy = v;
  Vocabulary moved = std::move(v);
  const Vocabulary* copies[] = {&copy, &moved};
  for (const Vocabulary* c : copies) {
    ASSERT_EQ(c->size(), 300u);
    EXPECT_EQ(c->TermString(299), "t299");
    EXPECT_EQ(c->Count(c->Lookup("t123")), 123u);
    EXPECT_EQ(c->TotalCount(), copy.TotalCount());
  }
}

// A started engine's dispatchers read term counts (Count, LeastFrequent)
// while the facade thread interns the terms of new subscriptions: growth
// must never move an entry a reader can reach. TSan runs this in CI.
TEST(VocabularyConcurrencyTest, InternWhileReadersCount) {
  Vocabulary v;
  for (int i = 0; i < 8; ++i) {
    v.AddCount(v.Intern("seed" + std::to_string(i)), i + 1);
  }
  constexpr int kTerms = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::vector<TermId> ids;
    while (!done.load(std::memory_order_acquire)) {
      const size_t n = v.size();
      ids.clear();
      for (size_t i = 0; i < n; i += 61) ids.push_back(static_cast<TermId>(i));
      ASSERT_LT(v.LeastFrequent(ids), n);
      ASSERT_EQ(v.Count(3), 4u);
      ASSERT_FALSE(v.TermString(static_cast<TermId>(n - 1)).empty());
    }
  });
  for (int i = 0; i < kTerms; ++i) {
    v.AddCount(v.Intern("t" + std::to_string(i)));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(v.size(), static_cast<size_t>(kTerms + 8));
  EXPECT_EQ(v.Count(v.Lookup("t19999")), 1u);
}

}  // namespace
}  // namespace ps2
