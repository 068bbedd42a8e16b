#include "fold.hpp"

#include <gtest/gtest.h>

namespace {

using nlh::e2e::fold_spans;
using nlh::e2e::quantile;
using nlh::obs::trace_event;

trace_event X(const char* name, std::uint32_t tid, std::int64_t ts, std::int64_t dur) {
  trace_event e;
  e.name = name;
  e.tid = tid;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.phase = 'X';
  return e;
}

trace_event I(const char* name, std::uint32_t tid, std::int64_t ts) {
  trace_event e;
  e.name = name;
  e.tid = tid;
  e.ts_ns = ts;
  e.phase = 'i';
  return e;
}

TEST(Quantile, EmptyAndSingle) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({7.0}, 0.0), 7.0);
  EXPECT_EQ(quantile({7.0}, 0.95), 7.0);
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(hundred, 0.95), 96.0);
  EXPECT_DOUBLE_EQ(nlh::e2e::median(hundred), 51.0);
}

TEST(Fold, NestedSelfTimeSubtractsDirectChildrenOnly) {
  // api [0,100) > dist [10,90) > drain [50,90)
  const std::vector<trace_event> ev{X("api/step", 1, 0, 100), X("dist/step", 1, 10, 80),
                                    X("dist/drain", 1, 50, 40)};
  const auto fr = fold_spans(ev);
  EXPECT_EQ(fr.by_name.at("api/step").self_ns, 20);
  EXPECT_EQ(fr.by_name.at("dist/step").self_ns, 40);
  EXPECT_EQ(fr.by_name.at("dist/drain").self_ns, 40);
  EXPECT_EQ(fr.by_name.at("api/step").total_ns, 100);
  // Self times of one nesting tree add up to the root's duration.
  std::int64_t self = 0;
  for (const auto& [name, t] : fr.by_name) self += t.self_ns;
  EXPECT_EQ(self, 100);
}

TEST(Fold, ThreadsAreFoldedIndependently) {
  // The pool task on tid 2 overlaps the drain on tid 1 in time but is not
  // its child.
  const std::vector<trace_event> ev{X("dist/drain", 1, 0, 50), X("amt/task", 2, 5, 30),
                                    X("dist/interior", 2, 6, 28)};
  const auto fr = fold_spans(ev);
  EXPECT_EQ(fr.by_name.at("dist/drain").self_ns, 50);
  EXPECT_EQ(fr.by_name.at("amt/task").self_ns, 2);
  EXPECT_EQ(fr.by_name.at("dist/interior").self_ns, 28);
}

TEST(Fold, SiblingsAndEqualStartsAndInstants) {
  // Two back-to-back children; a child starting with its parent; an
  // instant counted but never nested.
  const std::vector<trace_event> ev{
      X("svc/job", 3, 100, 100), X("api/step", 3, 100, 30), X("api/step", 3, 130, 30),
      I("net/send", 3, 140), X("api/step", 3, 200, 10)};
  const auto fr = fold_spans(ev);
  EXPECT_EQ(fr.by_name.at("svc/job").self_ns, 40);
  EXPECT_EQ(fr.by_name.at("api/step").count, 3u);
  EXPECT_EQ(fr.by_name.at("api/step").self_ns, 70);
  EXPECT_EQ(fr.instants.at("net/send"), 1u);
  // The step starting exactly when the job ends is top level.
  int top = 0;
  for (const auto& s : fr.spans) top += s.parent == -1 ? 1 : 0;
  EXPECT_EQ(top, 2);
}

TEST(Fold, PartialOverlapIsASiblingAndWindowFilters) {
  const std::vector<trace_event> ev{X("a", 1, 0, 50), X("b", 1, 40, 20), X("c", 1, 500, 5)};
  const auto fr = fold_spans(ev, 0, 100);
  EXPECT_EQ(fr.by_name.at("a").self_ns, 50);
  EXPECT_EQ(fr.by_name.at("b").self_ns, 20);
  EXPECT_EQ(fr.by_name.count("c"), 0u);
}

}  // namespace
