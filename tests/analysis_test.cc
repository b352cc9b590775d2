#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/chain_rules.h"
#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "harness/paper_patterns.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/sink.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "workload/presets.h"

namespace cep2asp {
namespace {

constexpr Timestamp kWin = 10000;
constexpr Timestamp kSlide = 1000;

// --- pattern-layer helpers --------------------------------------------------

Pattern SeqPattern(Predicate cross = Predicate(), Timestamp window = kWin,
                   Timestamp slide = kSlide) {
  auto root = std::make_unique<PatternNode>();
  root->op = PatternOp::kSeq;
  root->children.push_back(PatternBuilder::Atom(0, "e1"));
  root->children.push_back(PatternBuilder::Atom(1, "e2"));
  Pattern p(std::move(root), std::move(cross), window);
  p.set_slide(slide);
  return p;
}

// --- plan-layer helpers -----------------------------------------------------

std::unique_ptr<LogicalOp> Leaf(int position, int64_t key = 0) {
  auto scan = std::make_unique<LogicalOp>();
  scan->kind = LogicalOpKind::kScan;
  scan->scan_type = static_cast<EventTypeId>(position);
  scan->positions = {position};
  auto key_op = std::make_unique<LogicalOp>();
  key_op->kind = LogicalOpKind::kKeyByConst;
  key_op->const_key = key;
  key_op->positions = {position};
  key_op->inputs.push_back(std::move(scan));
  return key_op;
}

std::unique_ptr<LogicalOp> Join(std::unique_ptr<LogicalOp> left,
                                std::unique_ptr<LogicalOp> right,
                                bool dedup_pairs = false,
                                bool order_predicate = true) {
  auto join = std::make_unique<LogicalOp>();
  join->kind = LogicalOpKind::kWindowJoin;
  join->window = SlidingWindowSpec{kWin, kSlide};
  join->dedup_pairs = dedup_pairs;
  join->positions = left->positions;
  join->positions.insert(join->positions.end(), right->positions.begin(),
                         right->positions.end());
  if (order_predicate) {
    const int left_arity = static_cast<int>(left->positions.size());
    const int arity = static_cast<int>(join->positions.size());
    for (int l = 0; l < left_arity; ++l) {
      for (int r = left_arity; r < arity; ++r) {
        join->predicate.Add(Comparison::AttrAttr({l, Attribute::kTs},
                                                 CmpOp::kLt,
                                                 {r, Attribute::kTs}));
      }
    }
  }
  join->inputs.push_back(std::move(left));
  join->inputs.push_back(std::move(right));
  return join;
}

LogicalPlan OneJoinPlan() {
  LogicalPlan plan;
  plan.root = Join(Leaf(0), Leaf(1));
  plan.window_size = kWin;
  plan.slide = kSlide;
  return plan;
}

LogicalOp* RootJoinOf(LogicalPlan* plan) { return plan->root.get(); }

// --- graph-layer helpers ----------------------------------------------------

std::unique_ptr<VectorSource> EmptySource(const std::string& name) {
  return std::make_unique<VectorSource>(name, std::vector<SimpleEvent>{});
}

/// Minimal operator whose traits are freely configurable; lets graph tests
/// exercise rules no shipped operator violates.
class FakeOp : public Operator {
 public:
  explicit FakeOp(OperatorTraits traits, size_t state_bytes = 0)
      : traits_(traits), state_bytes_(state_bytes) {}

  std::string name() const override { return "fake"; }
  OperatorTraits Traits() const override { return traits_; }
  Status Process(int, Tuple tuple, Collector* out) override {
    out->Emit(std::move(tuple));
    return Status::OK();
  }
  size_t StateBytes() const override { return state_bytes_; }

 private:
  OperatorTraits traits_;
  size_t state_bytes_;
};

/// source -> keyed join (both ports via key-assigning maps) -> sink.
struct KeyedJoinGraph {
  JobGraph graph;
  NodeId join = -1;
  NodeId sink = -1;
};

KeyedJoinGraph MakeKeyedJoinGraph(SlidingWindowSpec spec = {kWin, kSlide}) {
  KeyedJoinGraph g;
  NodeId s1 = g.graph.AddSource(EmptySource("s1"));
  NodeId s2 = g.graph.AddSource(EmptySource("s2"));
  NodeId k1 = g.graph.AddOperatorAfter(s1, MapOperator::AssignConstantKey(0));
  NodeId k2 = g.graph.AddOperatorAfter(s2, MapOperator::AssignConstantKey(0));
  g.join = g.graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      spec, Predicate(), TimestampMode::kMax));
  EXPECT_TRUE(g.graph.Connect(k1, g.join, 0).ok());
  EXPECT_TRUE(g.graph.Connect(k2, g.join, 1).ok());
  g.sink = g.graph.AddOperatorAfter(g.join, std::make_unique<CollectSink>());
  return g;
}

// === pattern rules (1xx) ====================================================

TEST(PatternRulesTest, E100NoRoot) {
  Pattern empty;
  EXPECT_TRUE(AnalyzePattern(empty).Has(DiagnosticCode::kPatternNoRoot));
  EXPECT_FALSE(
      AnalyzePattern(SeqPattern()).Has(DiagnosticCode::kPatternNoRoot));
}

TEST(PatternRulesTest, E101WindowNotPositive) {
  EXPECT_TRUE(AnalyzePattern(SeqPattern(Predicate(), /*window=*/0))
                  .Has(DiagnosticCode::kPatternWindowNotPositive));
  EXPECT_FALSE(AnalyzePattern(SeqPattern())
                   .Has(DiagnosticCode::kPatternWindowNotPositive));
}

TEST(PatternRulesTest, E102SlideInvalid) {
  // Slide exceeding the window skips events entirely.
  EXPECT_TRUE(AnalyzePattern(SeqPattern(Predicate(), kWin, /*slide=*/2 * kWin))
                  .Has(DiagnosticCode::kPatternSlideInvalid));
  EXPECT_TRUE(AnalyzePattern(SeqPattern(Predicate(), kWin, /*slide=*/0))
                  .Has(DiagnosticCode::kPatternSlideInvalid));
  EXPECT_FALSE(
      AnalyzePattern(SeqPattern()).Has(DiagnosticCode::kPatternSlideInvalid));
}

TEST(PatternRulesTest, W103FilterUnsatisfiable) {
  // value > 50 AND value < 10 has an empty solution set.
  Predicate contradiction;
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGt, 50));
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 10));
  Pattern bad(PatternBuilder::Atom(0, "e1", contradiction), Predicate(), kWin);
  bad.set_slide(kSlide);
  EXPECT_TRUE(
      AnalyzePattern(bad).Has(DiagnosticCode::kPatternFilterUnsatisfiable));

  // value == 5 AND value != 5.
  Predicate eq_ne;
  eq_ne.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kEq, 5));
  eq_ne.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kNe, 5));
  Pattern bad2(PatternBuilder::Atom(0, "e1", eq_ne), Predicate(), kWin);
  bad2.set_slide(kSlide);
  EXPECT_TRUE(
      AnalyzePattern(bad2).Has(DiagnosticCode::kPatternFilterUnsatisfiable));

  Predicate fine;
  fine.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGt, 10));
  fine.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 50));
  Pattern good(PatternBuilder::Atom(0, "e1", fine), Predicate(), kWin);
  good.set_slide(kSlide);
  EXPECT_FALSE(
      AnalyzePattern(good).Has(DiagnosticCode::kPatternFilterUnsatisfiable));
}

TEST(PatternRulesTest, E104IterCountInvalid) {
  Pattern bad(PatternBuilder::Iter(0, "v", /*m=*/0), Predicate(), kWin);
  bad.set_slide(kSlide);
  EXPECT_TRUE(AnalyzePattern(bad).Has(DiagnosticCode::kPatternIterCountInvalid));

  Pattern good(PatternBuilder::Iter(0, "v", /*m=*/2), Predicate(), kWin);
  good.set_slide(kSlide);
  EXPECT_FALSE(
      AnalyzePattern(good).Has(DiagnosticCode::kPatternIterCountInvalid));
}

TEST(PatternRulesTest, W105IterConstraintUnused) {
  ConsecutiveConstraint c{Attribute::kValue, CmpOp::kLt};
  Pattern bad(PatternBuilder::Iter(0, "v", /*m=*/1, Predicate(), c),
              Predicate(), kWin);
  bad.set_slide(kSlide);
  EXPECT_TRUE(
      AnalyzePattern(bad).Has(DiagnosticCode::kPatternIterConstraintUnused));

  // m >= 2 has consecutive pairs; m == 1 unbounded can grow beyond one.
  Pattern good(PatternBuilder::Iter(0, "v", /*m=*/2, Predicate(), c),
               Predicate(), kWin);
  good.set_slide(kSlide);
  EXPECT_FALSE(
      AnalyzePattern(good).Has(DiagnosticCode::kPatternIterConstraintUnused));
  Pattern unbounded(PatternBuilder::Iter(0, "v", /*m=*/1, Predicate(), c,
                                         /*unbounded=*/true),
                    Predicate(), kWin);
  unbounded.set_slide(kSlide);
  EXPECT_FALSE(AnalyzePattern(unbounded)
                   .Has(DiagnosticCode::kPatternIterConstraintUnused));
}

TEST(PatternRulesTest, E106PredicateVarOutOfRange) {
  Predicate cross;
  cross.Add(Comparison::AttrAttr({0, Attribute::kValue}, CmpOp::kLt,
                                 {5, Attribute::kValue}));
  EXPECT_TRUE(AnalyzePattern(SeqPattern(cross))
                  .Has(DiagnosticCode::kPatternPredicateVarOutOfRange));

  Predicate in_range;
  in_range.Add(Comparison::AttrAttr({0, Attribute::kValue}, CmpOp::kLt,
                                    {1, Attribute::kValue}));
  EXPECT_FALSE(AnalyzePattern(SeqPattern(in_range))
                   .Has(DiagnosticCode::kPatternPredicateVarOutOfRange));
}

TEST(PatternRulesTest, W107PushdownMissed) {
  Predicate single_var;
  single_var.Add(
      Comparison::AttrConst({1, Attribute::kValue}, CmpOp::kGt, 10));
  EXPECT_TRUE(AnalyzePattern(SeqPattern(single_var))
                  .Has(DiagnosticCode::kPatternPushdownMissed));

  Predicate cross;
  cross.Add(Comparison::AttrAttr({0, Attribute::kValue}, CmpOp::kLt,
                                 {1, Attribute::kValue}));
  EXPECT_FALSE(AnalyzePattern(SeqPattern(cross))
                   .Has(DiagnosticCode::kPatternPushdownMissed));
}

// === plan rules (2xx) =======================================================

TEST(PlanRulesTest, ValidSingleJoinPlanIsClean) {
  LogicalPlan plan = OneJoinPlan();
  EXPECT_TRUE(AnalyzeLogicalPlan(plan).empty())
      << AnalyzeLogicalPlan(plan).ToString();
}

TEST(PlanRulesTest, E200NodeMalformed) {
  LogicalPlan plan = OneJoinPlan();
  RootJoinOf(&plan)->inputs.pop_back();  // a join with one input
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanNodeMalformed));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanNodeMalformed));
}

TEST(PlanRulesTest, E201WindowSpanMismatch) {
  LogicalPlan plan = OneJoinPlan();
  RootJoinOf(&plan)->window.size = kWin / 2;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanWindowSpanMismatch));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanWindowSpanMismatch));
}

TEST(PlanRulesTest, E202WindowSpecInvalid) {
  LogicalPlan plan = OneJoinPlan();
  RootJoinOf(&plan)->window.slide = 0;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanWindowSpecInvalid));

  // Plan-level window parameters are checked too.
  LogicalPlan bad_plan = OneJoinPlan();
  bad_plan.slide = 0;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(bad_plan).Has(DiagnosticCode::kPlanWindowSpecInvalid));

  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanWindowSpecInvalid));
}

TEST(PlanRulesTest, E203PredicateIndexOutOfRange) {
  LogicalPlan plan = OneJoinPlan();
  RootJoinOf(&plan)->predicate.Add(Comparison::AttrAttr(
      {0, Attribute::kTs}, CmpOp::kLt, {5, Attribute::kTs}));
  EXPECT_TRUE(AnalyzeLogicalPlan(plan).Has(
      DiagnosticCode::kPlanPredicateIndexOutOfRange));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanPredicateIndexOutOfRange));
}

TEST(PlanRulesTest, W213KeyAttrNonIntegral) {
  // Rewrite a leaf's key stage into an attribute key over a continuous
  // measurement: key extraction would truncate double -> int64.
  LogicalPlan plan = OneJoinPlan();
  LogicalOp* key_op = RootJoinOf(&plan)->inputs[0].get();
  key_op->kind = LogicalOpKind::kKeyByAttr;
  key_op->key_attr = Attribute::kValue;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanKeyAttrNonIntegral));

  // Integral attributes (ids, timestamps) key exactly — no warning.
  key_op->key_attr = Attribute::kId;
  EXPECT_FALSE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanKeyAttrNonIntegral));
}

TEST(PlanRulesTest, E204SeqOrderLost) {
  const Pattern pattern = SeqPattern();

  LogicalPlan unordered;
  unordered.root = Join(Leaf(0), Leaf(1), /*dedup_pairs=*/false,
                        /*order_predicate=*/false);
  unordered.window_size = kWin;
  unordered.slide = kSlide;
  EXPECT_TRUE(AnalyzeLogicalPlan(unordered, &pattern)
                  .Has(DiagnosticCode::kPlanSeqOrderLost));

  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan(), &pattern)
                   .Has(DiagnosticCode::kPlanSeqOrderLost));

  // Without the pattern the required order is unknown; the rule is skipped.
  EXPECT_FALSE(
      AnalyzeLogicalPlan(unordered).Has(DiagnosticCode::kPlanSeqOrderLost));
}

TEST(PlanRulesTest, E205IntermediateJoinDuplicates) {
  // Two-join chain: the inner join must deduplicate per-window pairs.
  LogicalPlan bad;
  bad.root = Join(Join(Leaf(0), Leaf(1), /*dedup_pairs=*/false), Leaf(2));
  bad.window_size = kWin;
  bad.slide = kSlide;
  EXPECT_TRUE(AnalyzeLogicalPlan(bad).Has(
      DiagnosticCode::kPlanIntermediateJoinDuplicates));

  LogicalPlan good;
  good.root = Join(Join(Leaf(0), Leaf(1), /*dedup_pairs=*/true), Leaf(2));
  good.window_size = kWin;
  good.slide = kSlide;
  EXPECT_FALSE(AnalyzeLogicalPlan(good).Has(
      DiagnosticCode::kPlanIntermediateJoinDuplicates));
}

TEST(PlanRulesTest, W206RootJoinDeduplicated) {
  LogicalPlan plan = OneJoinPlan();
  RootJoinOf(&plan)->dedup_pairs = true;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanRootJoinDeduplicated));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanRootJoinDeduplicated));
}

TEST(PlanRulesTest, E207JoinKeyMismatch) {
  LogicalPlan plan;
  plan.root = Join(Leaf(0, /*key=*/0), Leaf(1, /*key=*/1));
  plan.window_size = kWin;
  plan.slide = kSlide;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanJoinKeyMismatch));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanJoinKeyMismatch));
}

TEST(PlanRulesTest, W208JoinInputUnkeyed) {
  auto bare_scan = std::make_unique<LogicalOp>();
  bare_scan->kind = LogicalOpKind::kScan;
  bare_scan->positions = {1};
  LogicalPlan plan;
  plan.root = Join(Leaf(0), std::move(bare_scan));
  plan.window_size = kWin;
  plan.slide = kSlide;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanJoinInputUnkeyed));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanJoinInputUnkeyed));
}

LogicalPlan AggregatePlan(int64_t min_count) {
  LogicalPlan plan;
  auto agg = std::make_unique<LogicalOp>();
  agg->kind = LogicalOpKind::kAggregate;
  agg->window = SlidingWindowSpec{kWin, kSlide};
  agg->min_count = min_count;
  agg->positions = {0};
  agg->inputs.push_back(Leaf(0));
  plan.root = std::move(agg);
  plan.window_size = kWin;
  plan.slide = kSlide;
  return plan;
}

TEST(PlanRulesTest, W209AggregateMinCountInvalid) {
  EXPECT_TRUE(AnalyzeLogicalPlan(AggregatePlan(0))
                  .Has(DiagnosticCode::kPlanAggregateMinCountInvalid));
  EXPECT_FALSE(AnalyzeLogicalPlan(AggregatePlan(3))
                   .Has(DiagnosticCode::kPlanAggregateMinCountInvalid));
}

LogicalPlan ReorderPlan(std::vector<int> permutation) {
  LogicalPlan plan;
  auto reorder = std::make_unique<LogicalOp>();
  reorder->kind = LogicalOpKind::kReorder;
  reorder->reorder_permutation = std::move(permutation);
  reorder->positions = {0, 1};
  reorder->inputs.push_back(Join(Leaf(0), Leaf(1)));
  plan.root = std::move(reorder);
  plan.window_size = kWin;
  plan.slide = kSlide;
  return plan;
}

TEST(PlanRulesTest, E210ReorderInvalid) {
  EXPECT_TRUE(AnalyzeLogicalPlan(ReorderPlan({0, 0}))
                  .Has(DiagnosticCode::kPlanReorderInvalid));
  EXPECT_FALSE(AnalyzeLogicalPlan(ReorderPlan({1, 0}))
                   .Has(DiagnosticCode::kPlanReorderInvalid));
}

TEST(PlanRulesTest, E211UnionArityMismatch) {
  LogicalPlan plan;
  auto union_op = std::make_unique<LogicalOp>();
  union_op->kind = LogicalOpKind::kUnion;
  union_op->positions = {0};
  union_op->inputs.push_back(Leaf(0));
  union_op->inputs.push_back(Join(Leaf(1), Leaf(2), /*dedup_pairs=*/true));
  plan.root = std::move(union_op);
  plan.window_size = kWin;
  plan.slide = kSlide;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanUnionArityMismatch));

  LogicalPlan good;
  auto ok_union = std::make_unique<LogicalOp>();
  ok_union->kind = LogicalOpKind::kUnion;
  ok_union->positions = {0};
  ok_union->inputs.push_back(Leaf(0));
  ok_union->inputs.push_back(Leaf(0));
  good.root = std::move(ok_union);
  good.window_size = kWin;
  good.slide = kSlide;
  EXPECT_FALSE(
      AnalyzeLogicalPlan(good).Has(DiagnosticCode::kPlanUnionArityMismatch));
}

TEST(PlanRulesTest, E212JoinPositionsOverlap) {
  LogicalPlan plan;
  plan.root = Join(Leaf(0), Leaf(0));
  plan.window_size = kWin;
  plan.slide = kSlide;
  EXPECT_TRUE(
      AnalyzeLogicalPlan(plan).Has(DiagnosticCode::kPlanJoinPositionsOverlap));
  EXPECT_FALSE(AnalyzeLogicalPlan(OneJoinPlan())
                   .Has(DiagnosticCode::kPlanJoinPositionsOverlap));
}

// === graph rules (3xx) ======================================================

TEST(GraphRulesTest, ValidKeyedJoinGraphIsClean) {
  KeyedJoinGraph g = MakeKeyedJoinGraph();
  DiagnosticReport report = AnalyzeJobGraph(g.graph);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(GraphRulesTest, E301InputPortUnfed) {
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(src, u, 0).ok());  // port 1 stays unfed
  graph.AddOperatorAfter(u, std::make_unique<CollectSink>());
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphInputPortUnfed));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphInputPortUnfed));
}

TEST(GraphRulesTest, E302InputPortMultiplyFed) {
  JobGraph graph;
  NodeId a = graph.AddSource(EmptySource("a"));
  NodeId b = graph.AddSource(EmptySource("b"));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(1));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 0).ok());  // same port twice
  graph.AddOperatorAfter(u, std::make_unique<CollectSink>());
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphInputPortMultiplyFed));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphInputPortMultiplyFed));
}

TEST(GraphRulesTest, E303Cycle) {
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId a = graph.AddOperator(std::make_unique<UnionOperator>(2));
  NodeId b = graph.AddOperator(std::make_unique<UnionOperator>(1));
  ASSERT_TRUE(graph.Connect(src, a, 0).ok());
  ASSERT_TRUE(graph.Connect(a, b, 0).ok());
  ASSERT_TRUE(graph.Connect(b, a, 1).ok());
  EXPECT_TRUE(AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphCycle));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphCycle));
}

TEST(GraphRulesTest, E304NoSource) {
  JobGraph graph;
  graph.AddOperator(std::make_unique<CollectSink>());
  EXPECT_TRUE(AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphNoSource));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphNoSource));
}

TEST(GraphRulesTest, W305SourceUnconnected) {
  KeyedJoinGraph g = MakeKeyedJoinGraph();
  g.graph.AddSource(EmptySource("dangling"));
  EXPECT_TRUE(
      AnalyzeJobGraph(g.graph).Has(DiagnosticCode::kGraphSourceUnconnected));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphSourceUnconnected));
}

TEST(GraphRulesTest, W306OperatorUnreachable) {
  // A two-operator island: every port is fed, but no source reaches it.
  KeyedJoinGraph g = MakeKeyedJoinGraph();
  NodeId a = g.graph.AddOperator(std::make_unique<UnionOperator>(1));
  NodeId b = g.graph.AddOperator(std::make_unique<UnionOperator>(1));
  ASSERT_TRUE(g.graph.Connect(a, b, 0).ok());
  ASSERT_TRUE(g.graph.Connect(b, a, 0).ok());
  EXPECT_TRUE(
      AnalyzeJobGraph(g.graph).Has(DiagnosticCode::kGraphOperatorUnreachable));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphOperatorUnreachable));
}

TEST(GraphRulesTest, W307TerminalNotSink) {
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  graph.AddOperatorAfter(src, std::make_unique<UnionOperator>(1));
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphTerminalNotSink));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphTerminalNotSink));
}

TEST(GraphRulesTest, W308StatefulUnkeyed) {
  JobGraph graph;
  NodeId s1 = graph.AddSource(EmptySource("s1"));
  NodeId s2 = graph.AddSource(EmptySource("s2"));
  NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{kWin, kSlide}, Predicate(), TimestampMode::kMax));
  ASSERT_TRUE(graph.Connect(s1, join, 0).ok());  // no key-assigning maps
  ASSERT_TRUE(graph.Connect(s2, join, 1).ok());
  graph.AddOperatorAfter(join, std::make_unique<CollectSink>());
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphStatefulUnkeyed));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphStatefulUnkeyed));
}

TEST(GraphRulesTest, E309FanInAccountingBroken) {
  KeyedJoinGraph g = MakeKeyedJoinGraph();
  g.graph.mutable_node(g.sink).num_input_edges = 5;
  EXPECT_TRUE(AnalyzeJobGraph(g.graph).Has(
      DiagnosticCode::kGraphFanInAccountingBroken));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphFanInAccountingBroken));
}

TEST(GraphRulesTest, E310WindowSpanMismatch) {
  // Two sliding joins in one job disagreeing on the window spec.
  KeyedJoinGraph g = MakeKeyedJoinGraph(SlidingWindowSpec{kWin, kSlide});
  NodeId s3 = g.graph.AddSource(EmptySource("s3"));
  NodeId k3 = g.graph.AddOperatorAfter(s3, MapOperator::AssignConstantKey(0));
  NodeId join2 =
      g.graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
          SlidingWindowSpec{2 * kWin, kSlide}, Predicate(),
          TimestampMode::kMax));
  ASSERT_TRUE(g.graph.Connect(g.sink, join2, 0).ok());
  ASSERT_TRUE(g.graph.Connect(k3, join2, 1).ok());
  g.graph.AddOperatorAfter(join2, std::make_unique<CollectSink>());
  EXPECT_TRUE(
      AnalyzeJobGraph(g.graph).Has(DiagnosticCode::kGraphWindowSpanMismatch));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphWindowSpanMismatch));
}

TEST(GraphRulesTest, E311WindowSpecInvalid) {
  OperatorTraits traits;
  traits.stateful = true;
  traits.windowed = true;
  traits.window_size = 0;  // windowed but spans no time
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId bad = graph.AddOperatorAfter(src, std::make_unique<FakeOp>(traits));
  graph.AddOperatorAfter(bad, std::make_unique<CollectSink>());
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphWindowSpecInvalid));
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphWindowSpecInvalid));
}

/// MakeKeyedJoinGraph with the join expanded into subtasks and both input
/// edges hash-partitioned — the shape the translator emits for parallel O3.
KeyedJoinGraph MakeParallelKeyedJoinGraph(int parallelism) {
  KeyedJoinGraph g;
  NodeId s1 = g.graph.AddSource(EmptySource("s1"));
  NodeId s2 = g.graph.AddSource(EmptySource("s2"));
  NodeId k1 = g.graph.AddOperatorAfter(s1, MapOperator::AssignConstantKey(0));
  NodeId k2 = g.graph.AddOperatorAfter(s2, MapOperator::AssignConstantKey(0));
  g.join = g.graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{kWin, kSlide}, Predicate(), TimestampMode::kMax));
  EXPECT_TRUE(g.graph.Connect(k1, g.join, 0, PartitionMode::kHash).ok());
  EXPECT_TRUE(g.graph.Connect(k2, g.join, 1, PartitionMode::kHash).ok());
  EXPECT_TRUE(g.graph.SetParallelism(g.join, parallelism).ok());
  g.sink = g.graph.AddOperatorAfter(g.join, std::make_unique<CollectSink>());
  return g;
}

TEST(GraphRulesTest, E312KeyedParallelNotHashed) {
  // Parallel keyed join fed through forward edges: one key's events would
  // spread over subtasks and cross-stream matches silently vanish.
  KeyedJoinGraph g = MakeKeyedJoinGraph();
  ASSERT_TRUE(g.graph.SetParallelism(g.join, 2).ok());
  EXPECT_TRUE(
      AnalyzeJobGraph(g.graph).Has(DiagnosticCode::kGraphKeyedParallelNotHashed));
  EXPECT_FALSE(AnalyzeJobGraph(MakeParallelKeyedJoinGraph(2).graph)
                   .Has(DiagnosticCode::kGraphKeyedParallelNotHashed));
}

TEST(GraphRulesTest, W313ParallelismExceedsKeys) {
  KeyedJoinGraph g = MakeParallelKeyedJoinGraph(4);
  ASSERT_TRUE(g.graph.SetKeyDomainHint(g.join, 2).ok());
  EXPECT_TRUE(
      AnalyzeJobGraph(g.graph).Has(DiagnosticCode::kGraphParallelismExceedsKeys));

  KeyedJoinGraph wide = MakeParallelKeyedJoinGraph(4);
  ASSERT_TRUE(wide.graph.SetKeyDomainHint(wide.join, 128).ok());
  EXPECT_FALSE(AnalyzeJobGraph(wide.graph)
                   .Has(DiagnosticCode::kGraphParallelismExceedsKeys));
  // Unknown key domain (hint 0) must not warn.
  EXPECT_FALSE(AnalyzeJobGraph(MakeParallelKeyedJoinGraph(4).graph)
                   .Has(DiagnosticCode::kGraphParallelismExceedsKeys));
}

TEST(GraphRulesTest, E314ParallelUnsupported) {
  // FakeOp provides no CloneForSubtask, so it cannot be expanded.
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId op =
      graph.AddOperatorAfter(src, std::make_unique<FakeOp>(OperatorTraits{}));
  graph.AddOperatorAfter(op, std::make_unique<CollectSink>());
  ASSERT_TRUE(graph.SetParallelism(op, 2).ok());
  EXPECT_TRUE(
      AnalyzeJobGraph(graph).Has(DiagnosticCode::kGraphParallelUnsupported));
  EXPECT_FALSE(AnalyzeJobGraph(MakeParallelKeyedJoinGraph(2).graph)
                   .Has(DiagnosticCode::kGraphParallelUnsupported));
}

// === chain rules (I315) =====================================================

TEST(ChainRulesTest, FullyChainedLinearPipelineIsClean) {
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId f = graph.AddOperatorAfter(
      src,
      std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  NodeId k = graph.AddOperatorAfter(f, MapOperator::AssignConstantKey(0));
  graph.AddOperatorAfter(k, std::make_unique<CollectSink>());
  DiagnosticReport report = AnalyzeChaining(graph);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ChainRulesTest, I315FanInAndParallelismMismatch) {
  // Forward edges into the fan-in-2 join cannot fuse: two infos, nothing
  // stronger (the graph is perfectly runnable).
  DiagnosticReport fan_in = AnalyzeChaining(MakeKeyedJoinGraph().graph);
  EXPECT_TRUE(fan_in.Has(DiagnosticCode::kGraphForwardEdgeNotChained));
  EXPECT_EQ(fan_in.info_count(), 2);
  EXPECT_EQ(fan_in.error_count(), 0);
  EXPECT_EQ(fan_in.warning_count(), 0);

  // Parallel join into the parallelism-1 sink: the forward edge breaks on
  // the parallelism mismatch.
  DiagnosticReport mismatch =
      AnalyzeChaining(MakeParallelKeyedJoinGraph(2).graph);
  EXPECT_TRUE(mismatch.Has(DiagnosticCode::kGraphForwardEdgeNotChained));
}

TEST(ChainRulesTest, I315ChainingOptOut) {
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId f = graph.AddOperatorAfter(
      src,
      std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  NodeId k = graph.AddOperatorAfter(f, MapOperator::AssignConstantKey(0));
  graph.AddOperatorAfter(k, std::make_unique<CollectSink>());
  ASSERT_TRUE(graph.SetChaining(k, false).ok());
  DiagnosticReport report = AnalyzeChaining(graph);
  // f -> k breaks on the consumer opt-out, k -> sink on the producer's.
  EXPECT_EQ(report.info_count(), 2) << report.ToString();
  EXPECT_TRUE(report.Has(DiagnosticCode::kGraphForwardEdgeNotChained));
}

TEST(ChainRulesTest, GraphLintStaysInfoFree) {
  // I315 lives in the separate AnalyzeChaining pass: the executor-facing
  // graph lint must not pick it up even when unfused forward edges exist.
  EXPECT_FALSE(AnalyzeJobGraph(MakeKeyedJoinGraph().graph)
                   .Has(DiagnosticCode::kGraphForwardEdgeNotChained));
}

// === integration ============================================================

TEST(ValidateTest, WrapsGraphRules) {
  // JobGraph::Validate surfaces the first E-level finding as a Status and
  // keeps the stable code in the message.
  JobGraph graph;
  NodeId src = graph.AddSource(EmptySource("s"));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(src, u, 0).ok());
  Status status = graph.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("CEP2ASP-E301"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(MakeKeyedJoinGraph().graph.Validate().ok());
}

TEST(AnalyzeQueryTest, PaperPatternLintsClean) {
  PaperPatterns patterns;
  auto pattern =
      patterns.Seq1(0.5, 15 * kMillisPerMinute, kMillisPerMinute).ValueOrDie();
  auto analysis = AnalyzeQuery(pattern);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis.ValueOrDie().Merged().empty())
      << analysis.ValueOrDie().Merged().ToString();
}

TEST(AnalyzeQueryTest, PatternErrorsStopTheCascade) {
  Pattern empty;
  auto analysis = AnalyzeQuery(empty);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(
      analysis.ValueOrDie().pattern_report.Has(DiagnosticCode::kPatternNoRoot));
  EXPECT_TRUE(analysis.ValueOrDie().plan_report.empty());
  EXPECT_TRUE(analysis.ValueOrDie().graph_report.empty());
}

// The acceptance scenario, part 1: a deliberately corrupted logical plan
// (window-span mismatch between the stateful operators) is flagged at the
// plan layer and refused at compile time with the stable E-code —
// CompilePlan validates its graph via JobGraph::Validate before handing it
// to any executor.
TEST(ExecutorRefusalTest, CorruptedWindowSpanRejectedAtCompile) {
  PaperPatterns patterns;
  auto pattern =
      patterns.SeqN(3, 0.5, 15 * kMillisPerMinute, kMillisPerMinute)
          .ValueOrDie();
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(pattern).ValueOrDie();

  LogicalOp* join = plan.root.get();
  while (join != nullptr && join->kind != LogicalOpKind::kWindowJoin) {
    join = join->inputs.empty() ? nullptr : join->inputs[0].get();
  }
  ASSERT_NE(join, nullptr);
  join->window.size /= 2;  // the corruption

  EXPECT_TRUE(AnalyzeLogicalPlan(plan, &pattern)
                  .Has(DiagnosticCode::kPlanWindowSpanMismatch));

  PresetOptions preset;
  preset.events_per_sensor = 8;
  Workload workload = MakeCombinedWorkload(preset);
  auto compiled = CompilePlan(plan, workload.MakeSourceFactory());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().ToString().find("CEP2ASP-E310"),
            std::string::npos)
      << compiled.status().ToString();
}

// The acceptance scenario, part 2: a job graph assembled by hand (never
// passing through CompilePlan's validation) with the same window-span
// corruption is refused by both executors at Run time; the full report is
// surfaced in ExecutionResult::diagnostics.
TEST(ExecutorRefusalTest, CorruptedWindowSpanRejectedAtRun) {
  auto make_corrupted = [] {
    KeyedJoinGraph g = MakeKeyedJoinGraph(SlidingWindowSpec{kWin, kSlide});
    NodeId s3 = g.graph.AddSource(EmptySource("s3"));
    NodeId k3 = g.graph.AddOperatorAfter(s3, MapOperator::AssignConstantKey(0));
    NodeId join2 =
        g.graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
            SlidingWindowSpec{kWin / 2, kSlide}, Predicate(),
            TimestampMode::kMax));
    EXPECT_TRUE(g.graph.Connect(g.sink, join2, 0).ok());
    EXPECT_TRUE(g.graph.Connect(k3, join2, 1).ok());
    g.graph.AddOperatorAfter(join2, std::make_unique<CollectSink>());
    return g;
  };

  KeyedJoinGraph g1 = make_corrupted();
  ExecutionResult result = RunJob(&g1.graph, nullptr);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("CEP2ASP-E310"), std::string::npos)
      << result.error;
  EXPECT_FALSE(result.diagnostics.empty());

  KeyedJoinGraph g2 = make_corrupted();
  ThreadedExecutor threaded(&g2.graph);
  ExecutionResult threaded_result = threaded.Run();
  EXPECT_FALSE(threaded_result.ok);
  EXPECT_NE(threaded_result.error.find("CEP2ASP-E310"), std::string::npos)
      << threaded_result.error;
  EXPECT_FALSE(threaded_result.diagnostics.empty());
  // Refused before scheduling: the worker pool never ran.
  EXPECT_FALSE(threaded_result.scheduler.used);
}

TEST(DiagnosticRegistryTest, CodesRenderStably) {
  EXPECT_EQ(DiagnosticCodeName(DiagnosticCode::kPlanWindowSpanMismatch),
            "CEP2ASP-E201");
  EXPECT_EQ(DiagnosticCodeName(DiagnosticCode::kGraphSourceUnconnected),
            "CEP2ASP-W305");
  EXPECT_EQ(DiagnosticCodeName(DiagnosticCode::kGraphForwardEdgeNotChained),
            "CEP2ASP-I315");
  // Every registered code has a description and a consistent severity
  // letter in its rendered name.
  for (DiagnosticCode code : AllDiagnosticCodes()) {
    const std::string name = DiagnosticCodeName(code);
    ASSERT_GE(name.size(), 10u);
    char letter = '?';
    switch (DiagnosticCodeSeverity(code)) {
      case DiagnosticSeverity::kError:
        letter = 'E';
        break;
      case DiagnosticSeverity::kWarning:
        letter = 'W';
        break;
      case DiagnosticSeverity::kInfo:
        letter = 'I';
        break;
    }
    EXPECT_EQ(name[8], letter) << name;
    EXPECT_NE(std::string(DiagnosticCodeDescription(code)), "");
  }
}

}  // namespace
}  // namespace cep2asp
