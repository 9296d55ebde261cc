// The RAM → store tier on its own, without a service around it: which
// failures it persists as negative records. Hits, promotion, the
// degraded-never-cached rule and the boot replay are covered end to end by
// the ServiceStore.* tests in store_test.cc.
//
// Suite names start with "TieredCache" — the TSan CI job selects them by
// that regex.

#include "qmap/service/tiered_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// Per-test store path under gtest's temp dir, removed up-front so a
// leftover from an aborted run never leaks into this one.
StoreOptions ScratchStore(const std::string& name) {
  StoreOptions options;
  options.path = ::testing::TempDir() + "qmap_tier_" + name + ".log";
  std::remove(options.path.c_str());
  std::remove((options.path + ".compacting").c_str());
  return options;
}

TEST(TieredCache, PermanentFailureIsServedFromANegativeRecord) {
  const StoreOptions store = ScratchStore("negative");
  ASSERT_TRUE(store.cache_negatives);
  const Status failures[] = {Status::InvalidArgument("malformed"),
                             Status::Unsupported("no joins here")};
  int calls = 0;
  {
    TieredCache tier(/*enabled=*/true, {}, store, /*metrics=*/nullptr);
    ASSERT_NE(tier.store(), nullptr);
    for (uint64_t i = 0; i < 2; ++i) {
      const TranslationCacheKey key{1, 2, 100 + i};
      const auto fail = [&]() -> Result<Translation> {
        ++calls;
        return failures[i];
      };
      ResilienceManager::CallReport report;
      Result<Translation> first =
          tier.GetOrTranslate(key, nullptr, 0, report, fail);
      ASSERT_FALSE(first.ok());
      ASSERT_EQ(calls, static_cast<int>(i) + 1);
      // The next lookup answers from the negative record: same status, and
      // the source is not called again.
      Result<Translation> again =
          tier.GetOrTranslate(key, nullptr, 0, report, fail);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.status().code(), failures[i].code());
      EXPECT_EQ(again.status().message(), failures[i].message());
      EXPECT_EQ(calls, static_cast<int>(i) + 1);
    }
    EXPECT_EQ(tier.store_stats().negative_puts, 2u);
    EXPECT_EQ(tier.store_stats().negative_hits, 2u);
  }
  // The records are on disk: a new tier over the same store serves them.
  TieredCache reopened(/*enabled=*/true, {}, store, /*metrics=*/nullptr);
  ResilienceManager::CallReport report;
  Result<Translation> after = reopened.GetOrTranslate(
      {1, 2, 101}, nullptr, 0, report, [&]() -> Result<Translation> {
        ++calls;
        Translation translation;
        translation.mapped = Q("[a = 1]");
        return translation;
      });
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(calls, 2);
}

TEST(TieredCache, TransientFailureWritesNothing) {
  TieredCache tier(/*enabled=*/true, {}, ScratchStore("transient"),
                   /*metrics=*/nullptr);
  ASSERT_NE(tier.store(), nullptr);
  const TranslationCacheKey key{3, 4, 5};
  int calls = 0;
  const auto down = [&]() -> Result<Translation> {
    ++calls;
    return Status::Unavailable("source down");
  };
  ResilienceManager::CallReport report;
  Result<Translation> first = tier.GetOrTranslate(key, nullptr, 0, report, down);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(tier.store_entries(), 0u);
  EXPECT_EQ(tier.store_stats().negative_puts, 0u);
  EXPECT_EQ(tier.cache_entries(), 0u);
  // Nothing was remembered, so the source is asked again.
  Result<Translation> again = tier.GetOrTranslate(key, nullptr, 0, report, down);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace qmap
