#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "asp/dedup.h"
#include "asp/interval_join.h"
#include "asp/nseq_mark.h"
#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "asp/window.h"
#include "asp/window_aggregate.h"
#include "asp/window_apply.h"
#include "runtime/executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

constexpr Timestamp kMinute = kMillisPerMinute;

/// A binary-join run that keeps the graph (and thus the operator) alive so
/// tests can inspect operator state after execution.
template <typename JoinOp>
struct JoinRun {
  std::unique_ptr<JobGraph> graph;
  JoinOp* op = nullptr;
  std::vector<Tuple> out;
};

template <typename JoinOp>
JoinRun<JoinOp> RunBinaryKeepGraph(std::unique_ptr<JoinOp> join,
                                   std::vector<SimpleEvent> left,
                                   std::vector<SimpleEvent> right) {
  JoinRun<JoinOp> run;
  run.graph = std::make_unique<JobGraph>();
  JobGraph& graph = *run.graph;
  NodeId l = graph.AddSource(std::make_unique<VectorSource>("l", std::move(left)));
  NodeId r = graph.AddSource(std::make_unique<VectorSource>("r", std::move(right)));
  run.op = join.get();
  NodeId j = graph.AddOperator(std::move(join));
  CEP2ASP_CHECK_OK(graph.Connect(l, j, 0));
  CEP2ASP_CHECK_OK(graph.Connect(r, j, 1));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(j, std::move(sink_op));
  ExecutorOptions options;
  options.watermark_interval = 1;  // aggressive watermarks in unit tests
  ExecutionResult result = RunJob(&graph, sink, options);
  CEP2ASP_CHECK(result.ok) << result.error;
  run.out = sink->tuples();
  return run;
}

/// Runs left/right streams through a binary join operator and returns the
/// collected outputs.
template <typename JoinOp>
std::vector<Tuple> RunBinary(std::unique_ptr<JoinOp> join,
                             std::vector<SimpleEvent> left,
                             std::vector<SimpleEvent> right) {
  return RunBinaryKeepGraph(std::move(join), std::move(left), std::move(right))
      .out;
}

std::vector<Tuple> RunUnary(std::unique_ptr<Operator> op,
                            std::vector<SimpleEvent> input) {
  JobGraph graph;
  NodeId s = graph.AddSource(std::make_unique<VectorSource>("s", std::move(input)));
  NodeId o = graph.AddOperatorAfter(s, std::move(op));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(o, std::move(sink_op));
  ExecutorOptions options;
  options.watermark_interval = 1;
  ExecutionResult result = RunJob(&graph, sink, options);
  CEP2ASP_CHECK(result.ok) << result.error;
  return sink->tuples();
}

Predicate SeqCondition() {
  Predicate p;
  p.Add(Comparison::AttrAttr({0, Attribute::kTs}, CmpOp::kLt,
                             {1, Attribute::kTs}));
  return p;
}

// --- Window math -------------------------------------------------------------

TEST(WindowMathTest, FloorDivNegative) {
  EXPECT_EQ(FloorDiv(7, 3), 2);
  EXPECT_EQ(FloorDiv(-7, 3), -3);
  EXPECT_EQ(FloorDiv(-6, 3), -2);
  EXPECT_EQ(FloorDiv(0, 3), 0);
}

TEST(WindowMathTest, WindowAssignment) {
  SlidingWindowSpec spec{10, 2};  // windows [2k, 2k+10)
  EXPECT_EQ(spec.FirstWindow(0), -4);
  EXPECT_EQ(spec.LastWindow(0), 0);
  EXPECT_EQ(spec.FirstWindow(10), 1);  // [2,12) is first containing 10
  EXPECT_EQ(spec.LastWindow(10), 5);   // [10,20)
  // Every ts is in exactly size/slide windows.
  EXPECT_EQ(spec.LastWindow(7) - spec.FirstWindow(7) + 1, 5);
}

TEST(WindowMathTest, CanFireRespectsWatermark) {
  SlidingWindowSpec spec{10, 2};
  EXPECT_TRUE(spec.CanFire(0, 10));   // window [0,10) complete at wm=10
  EXPECT_FALSE(spec.CanFire(0, 9));
  EXPECT_FALSE(spec.CanFire(1, 11));  // [2,12) needs wm>=12
}

// --- Sliding window join -------------------------------------------------------

TEST(SlidingJoinTest, FindsOrderedPairWithinWindow) {
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 0 * kMinute, 1)},
                       {Ev(1, 1, 2 * kMinute, 2)});
  auto set = test::MatchSet(out);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_GE(out.size(), 1u);  // possibly duplicated across windows
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_EQ(out[0].event_time(), 2 * kMinute);  // kMax redefinition
}

TEST(SlidingJoinTest, RejectsWrongOrder) {
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 3 * kMinute, 1)},
                       {Ev(1, 1, 1 * kMinute, 2)});
  EXPECT_TRUE(out.empty());
}

TEST(SlidingJoinTest, PairSpanningFullWindowNotJoined) {
  // Events exactly W apart never share a window of length W.
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 0, 1)},
                       {Ev(1, 1, 4 * kMinute, 2)});
  EXPECT_TRUE(out.empty());
}

TEST(SlidingJoinTest, PairAtWindowEdgeJoined) {
  // W-1 apart: detected thanks to the window starting at the first event
  // (Theorem 2 with slide <= event granularity).
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 1 * kMinute, 1)},
                       {Ev(1, 1, 4 * kMinute + kMinute - 1, 2)});
  EXPECT_FALSE(out.empty());
}

TEST(SlidingJoinTest, OverlappingWindowsDuplicate) {
  // A pair 1 minute apart inside a 4-minute window with 1-minute slide is
  // seen by multiple windows: raw emissions exceed distinct matches.
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 4 * kMinute, 1)},
                       {Ev(1, 1, 5 * kMinute, 2)});
  EXPECT_EQ(test::MatchSet(out).size(), 1u);
  EXPECT_GT(out.size(), 1u);
}

TEST(SlidingJoinTest, KeyIsolation) {
  // Tuples only join within the same key partition (Equi Join, O3).
  std::vector<SimpleEvent> left = {Ev(0, 1, 0, 1), Ev(0, 2, 0, 1)};
  std::vector<SimpleEvent> right = {Ev(1, 1, kMinute, 2), Ev(1, 2, kMinute, 2)};
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join), left, right);
  // Keys default to the event id: 1-1 and 2-2 join; 1-2 and 2-1 do not.
  auto set = test::MatchSet(out);
  EXPECT_EQ(set.size(), 2u);
}

TEST(SlidingJoinTest, StateEvicted) {
  std::vector<SimpleEvent> left, right;
  for (int i = 0; i < 200; ++i) {
    left.push_back(Ev(0, 1, i * kMinute, 1));
    right.push_back(Ev(1, 1, i * kMinute + 1, 2));
  }
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, SeqCondition(),
      TimestampMode::kMax);
  auto run = RunBinaryKeepGraph(std::move(join), left, right);
  // Explicit windowing discards processed tuples: final state is empty.
  EXPECT_EQ(run.op->StateBytes(), 0u);
}

TEST(SlidingJoinTest, CrossJoinWithoutCondition) {
  // Empty condition = Cartesian product within the window (AND mapping).
  auto join = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{4 * kMinute, kMinute}, Predicate(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 2 * kMinute, 1)},
                       {Ev(1, 1, 1 * kMinute, 2)});
  // Order does not matter for the conjunction.
  EXPECT_EQ(test::MatchSet(out).size(), 1u);
}

// --- Sliding window join: differential test against a brute-force model ----

/// One input row of the differential test: the side it enters on and the
/// tuple (events, key, event time).
struct JoinInput {
  int side = 0;
  Tuple tuple;
};

/// Step of the differential test's input script: a row, or a watermark.
struct JoinStep {
  bool is_watermark = false;
  Timestamp watermark = 0;
  JoinInput row;
};

class RecordingCollector : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Random keyed two-sided input with real disorder and no late rows. Rows
/// arrive at non-decreasing arrival times `a`; a row's event time lies in
/// [a - disorder, a], and watermarks read `a - disorder`, so no row ever
/// reaches a window that already fired. Arity-1 rows come from two
/// interleaved producers, each in order but one lagging; arity-2
/// rows are partial matches whose two events span up to the window size
/// and whose event time is the earlier one, so they trail the stream the
/// way a nested join's output does. Event ids number the rows, so any
/// change of emission order shows.
std::vector<JoinStep> DisorderedJoinInput(std::mt19937_64& rng, size_t arity[2],
                                          Timestamp window_size,
                                          Timestamp start) {
  const Timestamp disorder = window_size + 2;
  std::vector<JoinStep> steps;
  Timestamp arrival = start;
  for (int i = 0; i < 240; ++i) {
    arrival += static_cast<Timestamp>(rng() % 3);  // many equal times
    JoinStep step;
    step.row.side = static_cast<int>(rng() % 2);
    const size_t n = arity[step.row.side];
    Tuple& t = step.row.tuple;
    // Arity 1: one of two in-order producers, the second 3 behind.
    // Arity 2: events at first_ts and at the arrival time.
    const Timestamp first_ts =
        arrival - (n == 1 ? static_cast<Timestamp>(rng() % 2) * 3
                          : static_cast<Timestamp>(rng() % window_size));
    for (size_t e = 0; e < n; ++e) {
      const Timestamp ts = e == 0 ? first_ts : arrival;
      t.AppendEvent(test::Ev(static_cast<EventTypeId>(2 * step.row.side + e),
                             i, ts, static_cast<double>(rng() % 10)));
    }
    t.set_event_time(first_ts);
    t.set_key(static_cast<int64_t>(rng() % 3));
    steps.push_back(step);
    if (rng() % 6 == 0) {
      JoinStep wm;
      wm.is_watermark = true;
      wm.watermark = arrival - disorder;
      steps.push_back(wm);
    }
  }
  JoinStep last;
  last.is_watermark = true;
  last.watermark = kMaxTimestamp;
  steps.push_back(last);
  return steps;
}

struct ModelEmission {
  int64_t window = 0;
  Tuple tuple;
};

/// Brute-force reference for SlidingWindowJoinOperator on input without
/// late rows: every window k fires once, in ascending order; within it keys
/// go in ascending order, and each side's rows of the window in a stable
/// sort of their arrival order by event time. Every (l, r) pair of the two
/// ranges counts as evaluated; under dedup a pair is emitted only in its
/// first common window, computed by division here.
std::vector<ModelEmission> ModelSlidingJoin(const std::vector<JoinStep>& steps,
                                            SlidingWindowSpec spec,
                                            const Predicate& condition,
                                            TimestampMode ts_mode, bool dedup,
                                            int64_t* pairs) {
  std::map<int64_t, std::vector<Tuple>> by_key[2];
  int64_t k_min = std::numeric_limits<int64_t>::max();
  int64_t k_max = std::numeric_limits<int64_t>::min();
  for (const JoinStep& step : steps) {
    if (step.is_watermark) continue;
    const Tuple& t = step.row.tuple;
    by_key[step.row.side][t.key()].push_back(t);
    k_min = std::min(k_min, spec.FirstWindow(t.event_time()));
    k_max = std::max(k_max, spec.LastWindow(t.event_time()));
  }
  for (auto& side : by_key) {
    for (auto& [key, rows] : side) {
      std::stable_sort(rows.begin(), rows.end(),
                       [](const Tuple& a, const Tuple& b) {
                         return a.event_time() < b.event_time();
                       });
    }
  }
  auto in_window = [&spec](const Tuple& t, int64_t k) {
    return t.event_time() >= spec.WindowStart(k) &&
           t.event_time() < spec.WindowEnd(k);
  };
  std::vector<ModelEmission> out;
  *pairs = 0;
  for (int64_t k = k_min; k <= k_max; ++k) {
    for (const auto& [key, left_rows] : by_key[0]) {
      auto right_it = by_key[1].find(key);
      if (right_it == by_key[1].end()) continue;
      for (const Tuple& l : left_rows) {
        if (!in_window(l, k)) continue;
        for (const Tuple& r : right_it->second) {
          if (!in_window(r, k)) continue;
          ++*pairs;
          if (dedup && std::max(spec.FirstWindow(l.event_time()),
                                spec.FirstWindow(r.event_time())) != k) {
            continue;
          }
          std::vector<SimpleEvent> events(l.begin(), l.end());
          events.insert(events.end(), r.begin(), r.end());
          if (!condition.EvalOnEvents(events.data(), events.size())) continue;
          ModelEmission m;
          m.window = k;
          for (const SimpleEvent& e : events) m.tuple.AppendEvent(e);
          m.tuple.set_key(key);
          m.tuple.set_event_time(ts_mode == TimestampMode::kMax
                                     ? m.tuple.tse()
                                     : m.tuple.tsb());
          out.push_back(std::move(m));
        }
      }
    }
  }
  return out;
}

void ExpectSameJoinOutput(const Tuple& got, const Tuple& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.key(), want.key());
  EXPECT_EQ(got.event_time(), want.event_time());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.event(i).type, want.event(i).type);
    EXPECT_EQ(got.event(i).id, want.event(i).id);
    EXPECT_EQ(got.event(i).ts, want.event(i).ts);
    EXPECT_EQ(got.event(i).value, want.event(i).value);
  }
}

// The operator's exact emission sequence (order included), the windows
// each watermark releases, pairs_evaluated() and the drained state must
// match the brute-force model across dedup on/off, both timestamp modes,
// side arities, conditions addressing both sides, and window shapes that
// include a size that is not a multiple of the slide and tumbling windows.
TEST(SlidingJoinTest, MatchesBruteForceModelUnderDisorder) {
  const SlidingWindowSpec specs[] = {{10, 1}, {10, 3}, {12, 4}, {9, 2}, {8, 8}};
  std::mt19937_64 rng(0x5a1d1e);
  int config = 0;
  for (const SlidingWindowSpec& spec : specs) {
    for (bool dedup : {false, true}) {
      for (TimestampMode mode : {TimestampMode::kMin, TimestampMode::kMax}) {
        for (bool with_condition : {false, true}) {
          ++config;
          size_t arity[2] = {1 + static_cast<size_t>(config % 2),
                             1 + static_cast<size_t>((config / 2) % 2)};
          const int last = static_cast<int>(arity[0] + arity[1]) - 1;
          Predicate condition;
          if (with_condition) {
            // Left's last event before right's first, and a value bound
            // between the outermost events.
            const int l_last = static_cast<int>(arity[0]) - 1;
            condition.Add(Comparison::AttrAttr({l_last, Attribute::kTs},
                                               CmpOp::kLt,
                                               {l_last + 1, Attribute::kTs}));
            condition.Add(Comparison::AttrAttr({0, Attribute::kValue},
                                               CmpOp::kLe,
                                               {last, Attribute::kValue}, 3.0));
          }
          const Timestamp start = config % 3 == 0 ? -25 : 100;
          const std::vector<JoinStep> steps =
              DisorderedJoinInput(rng, arity, spec.size, start);
          SCOPED_TRACE("size=" + std::to_string(spec.size) +
                       " slide=" + std::to_string(spec.slide) +
                       " dedup=" + std::to_string(dedup) +
                       " kMax=" + std::to_string(mode == TimestampMode::kMax) +
                       " condition=" + std::to_string(with_condition));

          int64_t want_pairs = 0;
          const std::vector<ModelEmission> want = ModelSlidingJoin(
              steps, spec, condition, mode, dedup, &want_pairs);

          SlidingWindowJoinOperator op(spec, condition, mode, "join", dedup);
          ASSERT_TRUE(op.Open().ok());
          RecordingCollector out;
          size_t released = 0;
          for (const JoinStep& step : steps) {
            if (!step.is_watermark) {
              ASSERT_TRUE(
                  op.Process(step.row.side, step.row.tuple, &out).ok());
              continue;
            }
            ASSERT_TRUE(op.OnWatermark(step.watermark, &out).ok());
            // A watermark releases exactly the windows it closes.
            while (released < want.size() &&
                   spec.CanFire(want[released].window, step.watermark)) {
              ++released;
            }
            ASSERT_EQ(out.tuples.size(), released)
                << "after watermark " << step.watermark;
          }
          ASSERT_EQ(out.tuples.size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE("emission " + std::to_string(i));
            ExpectSameJoinOutput(out.tuples[i], want[i].tuple);
          }
          EXPECT_EQ(op.pairs_evaluated(), want_pairs);
          EXPECT_EQ(op.StateBytes(), 0u);
        }
      }
    }
  }
}

// --- Interval join ----------------------------------------------------------------

TEST(IntervalJoinTest, SequenceBoundsMatchOnlyLater) {
  auto join = std::make_unique<IntervalJoinOperator>(
      IntervalBounds::ForSequence(4 * kMinute), Predicate(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 2 * kMinute, 1)},
                       {Ev(1, 1, 1 * kMinute, 2), Ev(1, 1, 3 * kMinute, 3)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(1).ts, 3 * kMinute);
}

TEST(IntervalJoinTest, ConjunctionBoundsSymmetric) {
  auto join = std::make_unique<IntervalJoinOperator>(
      IntervalBounds::ForConjunction(4 * kMinute), Predicate(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join),
                       {Ev(0, 1, 5 * kMinute, 1)},
                       {Ev(1, 1, 2 * kMinute, 2), Ev(1, 1, 8 * kMinute, 3)});
  EXPECT_EQ(out.size(), 2u);
}

TEST(IntervalJoinTest, NoDuplicates) {
  // The same pair is emitted exactly once regardless of stream length
  // (content-based windows, §4.3.1).
  std::vector<SimpleEvent> left, right;
  for (int i = 0; i < 50; ++i) left.push_back(Ev(0, 1, i * kMinute, 1));
  for (int i = 0; i < 50; ++i) right.push_back(Ev(1, 1, i * kMinute + 1, 2));
  auto join = std::make_unique<IntervalJoinOperator>(
      IntervalBounds::ForSequence(4 * kMinute), Predicate(),
      TimestampMode::kMax);
  auto out = RunBinary(std::move(join), left, right);
  EXPECT_EQ(out.size(), test::MatchSet(out).size());
}

TEST(IntervalJoinTest, AgreesWithSlidingJoinAfterDedup) {
  std::vector<SimpleEvent> left, right;
  for (int i = 0; i < 40; ++i) left.push_back(Ev(0, 1, i * kMinute, i));
  for (int i = 0; i < 40; ++i) right.push_back(Ev(1, 1, i * kMinute + 30000, i));
  auto sliding = std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{5 * kMinute, 30000}, SeqCondition(),
      TimestampMode::kMax);
  auto interval = std::make_unique<IntervalJoinOperator>(
      IntervalBounds::ForSequence(5 * kMinute), SeqCondition(),
      TimestampMode::kMax);
  auto sliding_out = RunBinary(std::move(sliding), left, right);
  auto interval_out = RunBinary(std::move(interval), left, right);
  EXPECT_EQ(test::MatchSet(sliding_out), test::MatchSet(interval_out));
}

TEST(IntervalJoinTest, WindowsCreatedPerLeftEvent) {
  std::vector<SimpleEvent> left = {Ev(0, 1, 0, 1), Ev(0, 1, kMinute, 1)};
  std::vector<SimpleEvent> right;
  for (int i = 0; i < 100; ++i) right.push_back(Ev(1, 1, i * 1000, 2));
  auto join = std::make_unique<IntervalJoinOperator>(
      IntervalBounds::ForSequence(4 * kMinute), Predicate(),
      TimestampMode::kMax);
  auto run = RunBinaryKeepGraph(std::move(join), left, right);
  EXPECT_EQ(run.op->windows_created(), 2);
}

// --- Window aggregate --------------------------------------------------------------

TEST(WindowAggregateTest, CountPerWindow) {
  std::vector<SimpleEvent> input;
  for (int i = 0; i < 10; ++i) input.push_back(Ev(0, 1, i * kMinute, 1));
  auto agg = std::make_unique<WindowAggregateOperator>(
      SlidingWindowSpec{2 * kMinute, 2 * kMinute}, AggregateFn::kCount,
      Attribute::kValue);
  auto out = RunUnary(std::move(agg), input);
  // Tumbling 2-minute windows over 10 minute-spaced events: 5 windows of 2.
  ASSERT_EQ(out.size(), 5u);
  for (const Tuple& t : out) EXPECT_DOUBLE_EQ(t.event(0).value, 2.0);
}

TEST(WindowAggregateTest, MinCountGates) {
  std::vector<SimpleEvent> input;
  for (int i = 0; i < 4; ++i) input.push_back(Ev(0, 1, i * kMinute, 1));
  auto agg = std::make_unique<WindowAggregateOperator>(
      SlidingWindowSpec{2 * kMinute, 2 * kMinute}, AggregateFn::kCount,
      Attribute::kValue, /*min_count=*/3);
  auto out = RunUnary(std::move(agg), input);
  EXPECT_TRUE(out.empty());  // no window holds 3 events
}

TEST(WindowAggregateTest, AvgMinMaxSum) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 2), Ev(0, 1, kMinute, 6)};
  for (AggregateFn fn : {AggregateFn::kAvg, AggregateFn::kMin,
                         AggregateFn::kMax, AggregateFn::kSum}) {
    auto agg = std::make_unique<WindowAggregateOperator>(
        SlidingWindowSpec{2 * kMinute, 2 * kMinute}, fn, Attribute::kValue);
    auto out = RunUnary(std::move(agg), input);
    ASSERT_EQ(out.size(), 1u);
    double expected = fn == AggregateFn::kAvg   ? 4.0
                      : fn == AggregateFn::kMin ? 2.0
                      : fn == AggregateFn::kMax ? 6.0
                                                : 8.0;
    EXPECT_DOUBLE_EQ(out[0].event(0).value, expected);
  }
}

TEST(WindowAggregateTest, EmptyWindowsDoNotFire) {
  // Two events far apart: intermediate windows are empty and silent
  // (which is why O2 cannot express Kleene*, §4.3.2).
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(0, 1, 60 * kMinute, 1)};
  auto agg = std::make_unique<WindowAggregateOperator>(
      SlidingWindowSpec{kMinute, kMinute}, AggregateFn::kCount,
      Attribute::kValue);
  auto out = RunUnary(std::move(agg), input);
  EXPECT_EQ(out.size(), 2u);
}

TEST(WindowAggregateTest, PerKeyAggregation) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(0, 2, 1, 1),
                                    Ev(0, 1, 2, 1)};
  auto agg = std::make_unique<WindowAggregateOperator>(
      SlidingWindowSpec{kMinute, kMinute}, AggregateFn::kCount,
      Attribute::kValue);
  auto out = RunUnary(std::move(agg), input);
  ASSERT_EQ(out.size(), 2u);  // one aggregate per key
  double total = out[0].event(0).value + out[1].event(0).value;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

// --- Window apply -------------------------------------------------------------------

TEST(WindowApplyTest, SeesSortedContentAndBounds) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 30000, 3), Ev(0, 1, 10000, 1),
                                    Ev(0, 1, 50000, 5)};
  // Input must be ts-ordered per source; scramble via two sources instead.
  std::sort(input.begin(), input.end(),
            [](const SimpleEvent& a, const SimpleEvent& b) { return a.ts < b.ts; });
  bool checked = false;
  auto apply = std::make_unique<WindowApplyOperator>(
      SlidingWindowSpec{kMinute, kMinute},
      [&checked](int64_t, Timestamp begin, Timestamp end,
                 const std::vector<SimpleEvent>& events, Collector* out) {
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, kMinute);
        ASSERT_EQ(events.size(), 3u);
        EXPECT_LT(events[0].ts, events[1].ts);
        EXPECT_LT(events[1].ts, events[2].ts);
        checked = true;
        out->Emit(Tuple(events.back()));
      });
  auto out = RunUnary(std::move(apply), input);
  EXPECT_TRUE(checked);
  EXPECT_EQ(out.size(), 1u);
}

// --- NseqMark -----------------------------------------------------------------------

TEST(NseqMarkTest, MarksNextNegatedOccurrence) {
  // T1 at t=0; T2 at t=2min: ats = 2min.
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(1, 1, 2 * kMinute, 2)};
  auto mark = std::make_unique<NseqMarkOperator>(0, 1, 4 * kMinute);
  auto out = RunUnary(std::move(mark), input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(0).type, 0);
  EXPECT_EQ(out[0].event(0).aux_ts, 2 * kMinute);
}

TEST(NseqMarkTest, NoNegatedOccurrenceYieldsWindowEnd) {
  std::vector<SimpleEvent> input = {Ev(0, 1, kMinute, 1)};
  auto mark = std::make_unique<NseqMarkOperator>(0, 1, 4 * kMinute);
  auto out = RunUnary(std::move(mark), input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(0).aux_ts, 5 * kMinute);
}

TEST(NseqMarkTest, NegatedOutsideWindowIgnored) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(1, 1, 5 * kMinute, 2)};
  auto mark = std::make_unique<NseqMarkOperator>(0, 1, 4 * kMinute);
  auto out = RunUnary(std::move(mark), input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(0).aux_ts, 4 * kMinute);  // e1.ts + W
}

TEST(NseqMarkTest, PicksFirstOfSeveral) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(1, 1, kMinute, 2),
                                    Ev(1, 1, 2 * kMinute, 3)};
  auto mark = std::make_unique<NseqMarkOperator>(0, 1, 4 * kMinute);
  auto out = RunUnary(std::move(mark), input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(0).aux_ts, kMinute);
}

TEST(NseqMarkTest, SimultaneousNegatedNotAfter) {
  // T2 at exactly e1.ts is not strictly after e1.
  std::vector<SimpleEvent> input = {Ev(1, 1, kMinute, 2), Ev(0, 1, kMinute, 1)};
  auto mark = std::make_unique<NseqMarkOperator>(0, 1, 4 * kMinute);
  auto out = RunUnary(std::move(mark), input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event(0).aux_ts, 5 * kMinute);
}

// --- Dedup ---------------------------------------------------------------------------

TEST(DedupTest, RemovesDuplicateMatches) {
  std::vector<SimpleEvent> input = {Ev(0, 1, 0, 1), Ev(0, 1, 0, 1),
                                    Ev(0, 1, kMinute, 1)};
  auto dedup = std::make_unique<DedupOperator>(4 * kMinute);
  auto out = RunUnary(std::move(dedup), input);
  EXPECT_EQ(out.size(), 2u);
}

// --- Stateless helpers -----------------------------------------------------------------

TEST(StatelessTest, AssignConstantKey) {
  auto map = MapOperator::AssignConstantKey(99);
  auto out = RunUnary(std::move(map), {Ev(0, 5, 0, 1)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key(), 99);
}

TEST(StatelessTest, KeyByAttribute) {
  SimpleEvent e = Ev(0, 5, 0, 42.0);
  auto map = MapOperator::KeyByAttribute(0, Attribute::kValue);
  auto out = RunUnary(std::move(map), {e});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key(), 42);
}

TEST(StatelessTest, FilterFromPredicate) {
  Predicate p;
  p.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGt, 5.0));
  auto filter = FilterOperator::FromPredicate(p);
  auto out = RunUnary(std::move(filter), {Ev(0, 1, 0, 4), Ev(0, 1, 1, 6)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].event(0).value, 6.0);
}

}  // namespace
}  // namespace cep2asp
