#include "qmap/mediator/mediator.h"

#include <gtest/gtest.h>

#include "qmap/contexts/faculty.h"
#include "qmap/rules/rule_program.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// Example 3's constraint query: papers written by CS faculty interested in
// data mining.
Query Example3Query() {
  return Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
}

TEST(Mediator, Example3TranslationForT1) {
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // S1(Q) = x1 ∧ x2∧x3 (join on author names; relaxed near -> keyword ∧).
  const Translation& s1 = t->per_source.at("T1");
  EXPECT_EQ(s1.mapped.ToString(),
            "[fac.aubib.bib contains \"data(and)mining\"] ∧ "
            "[fac.aubib.name = pub.paper.au]");
}

TEST(Mediator, Example3TranslationForT2) {
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok());
  // S2(Q) = [prof.dept = 230]: all other constraints map to True at T2.
  const Translation& s2 = t->per_source.at("T2");
  EXPECT_EQ(s2.mapped.ToString(), "[fac.prof.dept = 230]");
}

TEST(Mediator, Example3FilterIsTheNearConstraint) {
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok());
  // F = c plus the fac view's cross-source join (which no source evaluates).
  EXPECT_EQ(t->filter.ToString(),
            "[fac.bib contains \"data(near)mining\"] ∧ [fac.ln = fac.prof.ln] ∧ "
            "[fac.fn = fac.prof.fn]");
}

TEST(Mediator, Example3ExecutionMatchesDirect) {
  // The empirical Eq. 3: σ_F[σ_S1(R1) × σ_S2(R2) × X] == σ_Q(R1 × R2 × X).
  Mediator mediator = MakeFacultyMediator();
  Result<TupleSet> pushed = mediator.Execute(Example3Query());
  Result<TupleSet> direct = mediator.ExecuteDirect(Example3Query());
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameTupleSet(*pushed, *direct));
  // CS faculty with "data" near "mining" in their bib: Ullman and Garcia
  // (Chang matches the text but is in EE).
  EXPECT_EQ(pushed->size(), 2u);
}

TEST(Mediator, RelaxationAdmitsFalsePositivesBeforeFilter) {
  // Without the filter, T1's relaxed mapping admits Chang (keywords present
  // but proximity/department fail) — Figure 1's extra tuples.
  Mediator mediator = MakeFacultyMediator();
  Query q = Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"sources(near)mining\"]");
  Result<MediatorTranslation> t = mediator.Translate(q);
  ASSERT_TRUE(t.ok());
  // Chang's bib: "... heterogeneous data sources; text mining" — 'sources'
  // and 'mining' are 2 words apart: matches near. Garcia's: "... mining of
  // web sources" — also near. Ullman has no 'sources'.
  Result<TupleSet> pushed = mediator.Execute(q);
  Result<TupleSet> direct = mediator.ExecuteDirect(q);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameTupleSet(*pushed, *direct));
}

TEST(Mediator, JoinOnlyQuery) {
  Mediator mediator = MakeFacultyMediator();
  Query q = Q("[fac.ln = pub.ln] and [fac.fn = pub.fn]");
  Result<TupleSet> pushed = mediator.Execute(q);
  Result<TupleSet> direct = mediator.ExecuteDirect(q);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameTupleSet(*pushed, *direct));
  EXPECT_EQ(pushed->size(), 4u);  // every author is faculty in the sample data
}

TEST(Mediator, SelectionOnNames) {
  Mediator mediator = MakeFacultyMediator();
  // fac.ln = Ullman: T1 relaxes to `aubib.name contains Ullman` (R3), T2
  // maps exactly to prof.ln (R6); filter needed only for the view join.
  Query q = Q("[fac.ln = \"Ullman\"]");
  Result<MediatorTranslation> t = mediator.Translate(q);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->per_source.at("T1").mapped.ToString(),
            "[fac.aubib.name contains \"Ullman\"]");
  EXPECT_EQ(t->per_source.at("T2").mapped.ToString(), "[fac.prof.ln = \"Ullman\"]");
  Result<TupleSet> pushed = mediator.Execute(q);
  Result<TupleSet> direct = mediator.ExecuteDirect(q);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameTupleSet(*pushed, *direct));
}

TEST(Mediator, LnFnPairComposesAuthorName) {
  Mediator mediator = MakeFacultyMediator();
  Query q = Q("[fac.ln = \"Ullman\"] and [fac.fn = \"Jeff\"]");
  Result<MediatorTranslation> t = mediator.Translate(q);
  ASSERT_TRUE(t.ok());
  // R4 (exact) fires for the pair; R3's singles are suppressed.
  EXPECT_EQ(t->per_source.at("T1").mapped.ToString(),
            "[fac.aubib.name = \"Ullman, Jeff\"]");
}

TEST(Mediator, ExecuteTranslatedMatchesExecute) {
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok());
  Result<TupleSet> replayed = mediator.ExecuteTranslated(*t);
  Result<TupleSet> executed = mediator.Execute(Example3Query());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_TRUE(executed.ok());
  EXPECT_TRUE(SameTupleSet(*replayed, *executed));
}

TEST(Mediator, ExecuteTranslatedStaleSourceReturnsStatus) {
  // Regression: a source added between Translate and execution used to hit
  // per_source.at() and throw std::out_of_range from deep inside
  // ConvertedCross. It must surface as a Status instead (the library's
  // no-exceptions contract).
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok());
  SourceContext late("T3", MappingSpec());
  Relation extra("extra", {"x"});
  ASSERT_TRUE(extra.AddRow({Value::Int(1)}).ok());
  late.AddRelation(std::move(extra));
  ASSERT_TRUE(late.Bind("t3.extra", "extra").ok());
  mediator.AddSource(std::move(late));
  Result<TupleSet> stale = mediator.ExecuteTranslated(*t);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  EXPECT_NE(stale.status().message().find("T3"), std::string::npos);
}

TEST(Mediator, TranslateMergesPerSourceStats) {
  Mediator mediator = MakeFacultyMediator();
  Result<MediatorTranslation> t = mediator.Translate(Example3Query());
  ASSERT_TRUE(t.ok());
  uint64_t per_source_attempts = 0;
  for (const auto& [name, translation] : t->per_source) {
    per_source_attempts += translation.stats.match.pattern_attempts;
  }
  EXPECT_GT(per_source_attempts, 0u);
  EXPECT_EQ(t->stats.match.pattern_attempts, per_source_attempts);
  // No service layer involved: cache/parallelism counters stay zero.
  EXPECT_EQ(t->stats.cache_hits, 0u);
  EXPECT_EQ(t->stats.parallel_tasks, 0u);
}

// Each source's translator (and so its compiled rule plan) is built once,
// when the source is added: repeated Translate calls compile nothing.
TEST(Mediator, RepeatedTranslateCompilesNoPlans) {
  Mediator mediator = MakeFacultyMediator();
  ASSERT_TRUE(mediator.Translate(Example3Query()).ok());  // warm-up
  const uint64_t built = CompiledPlanGlobalStats().plans_built;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mediator.Translate(Example3Query()).ok());
  }
  EXPECT_EQ(CompiledPlanGlobalStats().plans_built, built);
}

TEST(Mediator, FindSource) {
  Mediator mediator = MakeFacultyMediator();
  EXPECT_NE(mediator.FindSource("T1"), nullptr);
  EXPECT_NE(mediator.FindSource("T2"), nullptr);
  EXPECT_EQ(mediator.FindSource("T9"), nullptr);
}

}  // namespace
}  // namespace qmap
