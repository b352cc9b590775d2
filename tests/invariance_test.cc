// Execution-invariance properties: match sets must not depend on *how*
// the job is driven — watermark cadence, state-sampling cadence, queue
// capacities, or executor choice are operational knobs, not semantics.

#include <gtest/gtest.h>

#include "runtime/threaded_executor.h"
#include "tests/test_util.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {
namespace {

constexpr Timestamp kMin = kMillisPerMinute;

class InvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = EventTypeRegistry::Global()->RegisterOrGet("InvA");
    b_ = EventTypeRegistry::Global()->RegisterOrGet("InvB");
    c_ = EventTypeRegistry::Global()->RegisterOrGet("InvC");

    for (EventTypeId type : {a_, b_, c_}) {
      StreamSpec spec;
      spec.type = type;
      spec.num_sensors = 2;
      spec.events_per_sensor = 60;
      spec.period = kMin;
      spec.seed = 1234 + type;
      // Aligned sampling so the default one-minute slide is lossless
      // (Theorem 2); with staggered sensors the implicit-windowing engines
      // would legitimately find edge matches the 1-minute discretization
      // misses.
      spec.align_to_period = true;
      workload_.AddStream(spec);
    }
  }

  Pattern Nseq() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
    return PatternBuilder()
        .Nseq({a_, "e1", filter}, {b_, "e2", filter}, {c_, "e3", filter})
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  Pattern Seq3() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(a_, "e1", filter),
             PatternBuilder::Atom(b_, "e2", filter),
             PatternBuilder::Atom(c_, "e3", filter))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  /// SEQ with Equi-Join id predicates: O3 extracts a by-attribute key plan,
  /// making the join stages parallelizable.
  Pattern Seq3Keyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(a_, "e1", filter),
             PatternBuilder::Atom(b_, "e2", filter),
             PatternBuilder::Atom(c_, "e3", filter))
        .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                    {1, Attribute::kId}))
        .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                    {2, Attribute::kId}))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  Pattern Iter3Keyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    PatternBuilder builder;
    builder.Root(PatternBuilder::Iter(a_, "e", 3, filter));
    for (int i = 0; i + 1 < 3; ++i) {
      builder.Where(Comparison::AttrAttr({i, Attribute::kId}, CmpOp::kEq,
                                         {i + 1, Attribute::kId}));
    }
    return builder.Within(6 * kMin).Build().ValueOrDie();
  }

  Pattern NseqKeyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    return PatternBuilder()
        .Nseq({a_, "e1", filter}, {b_, "e2", filter}, {c_, "e3", filter})
        .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                    {1, Attribute::kId}))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  std::vector<std::string> RunWithExecutorOptions(const Pattern& pattern,
                                                  const ExecutorOptions& options,
                                                  TranslatorOptions topt = {}) {
    auto compiled =
        TranslatePattern(pattern, topt, workload_.MakeSourceFactory());
    CEP2ASP_CHECK(compiled.ok()) << compiled.status();
    ExecutionResult result = RunJob(&compiled->graph, compiled->sink, options);
    CEP2ASP_CHECK(result.ok) << result.error;
    return test::MatchSet(compiled->sink->tuples());
  }

  EventTypeId a_ = 0, b_ = 0, c_ = 0;
  Workload workload_;
};

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeFaspMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  ASSERT_FALSE(oracle.empty());
  for (int interval : {1, 7, 64, 1024, 100000}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    EXPECT_EQ(RunWithExecutorOptions(p, options), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeNseqMatches) {
  // NSEQ has the most watermark-sensitive pipeline (the marking operator
  // holds events for a full window).
  Pattern p = Nseq();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (int interval : {1, 13, 256, 4096}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    EXPECT_EQ(RunWithExecutorOptions(p, options), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeFcepMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (int interval : {1, 17, 512}) {
    auto compiled = BuildCepJob(p, workload_.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExecutorOptions options;
    options.watermark_interval = interval;
    ExecutionResult result = RunJob(&compiled->graph, compiled->sink, options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, QueueCapacityDoesNotChangeThreadedMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (size_t capacity : {size_t{2}, size_t{64}, size_t{8192}}) {
    auto compiled = TranslatePattern(p, {}, workload_.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ThreadedExecutorOptions options;
    options.queue_capacity = capacity;
    ThreadedExecutor executor(&compiled->graph, options);
    ExecutionResult result = executor.Run(compiled->sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), oracle)
        << "queue_capacity=" << capacity;
  }
}

TEST_F(InvarianceTest, BatchSizeDoesNotChangeThreadedMatches) {
  // The exchange batch size (and channel implementation) is an operational
  // knob of the threaded runtime: {1, 7, 64} must produce the exact same
  // MatchKey set as the single-threaded reference on all three paper
  // pattern shapes (SEQ, ITER, NSEQ). batch=1 reproduces the historical
  // one-message-per-push exchange.
  Predicate filter;
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
  Pattern iter = PatternBuilder()
                     .Root(PatternBuilder::Iter(a_, "e", 3, filter))
                     .Within(6 * kMin)
                     .Build()
                     .ValueOrDie();
  struct Case {
    const char* name;
    Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"SEQ", Seq3()});
  cases.push_back({"ITER", std::move(iter)});
  cases.push_back({"NSEQ", Nseq()});
  for (const Case& c : cases) {
    auto reference = RunWithExecutorOptions(c.pattern, ExecutorOptions{});
    ASSERT_FALSE(reference.empty()) << c.name;
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      auto compiled =
          TranslatePattern(c.pattern, {}, workload_.MakeSourceFactory());
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ThreadedExecutorOptions options;
      options.batch_size = batch;
      ThreadedExecutor executor(&compiled->graph, options);
      ExecutionResult result = executor.Run(compiled->sink);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), reference)
          << c.name << " batch_size=" << batch;
    }
  }
}

TEST_F(InvarianceTest, ParallelismMatrixPreservesMatchMultisets) {
  // Keyed data parallelism is an operational knob: for every pattern shape
  // (SEQ, ITER, NSEQ) the threaded engine must reproduce the exact match
  // *multiset* — including the per-overlap duplicates the sliding
  // semantics prescribes — of the single-threaded reference, at every
  // (parallelism, batch_size) combination. Parallelism 4 over only two
  // sensor ids additionally exercises subtask instances that never
  // receive a tuple (they must still align watermarks and terminate).
  struct Case {
    const char* name;
    Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"SEQ", Seq3Keyed()});
  cases.push_back({"ITER", Iter3Keyed()});
  cases.push_back({"NSEQ", NseqKeyed()});

  TranslatorOptions o3;
  o3.use_equi_join_keys = true;
  for (const Case& c : cases) {
    auto reference_job =
        TranslatePattern(c.pattern, o3, workload_.MakeSourceFactory());
    ASSERT_TRUE(reference_job.ok()) << reference_job.status();
    // End-of-stream watermarks only, in both engines. The raw emission
    // multiset of the NSEQ pipeline depends on the exact watermark step
    // sequence: the marking operator releases events a full window behind
    // the watermark, so every intermediate step changes which sliding
    // windows still see a released event downstream — and in the threaded
    // engine that step sequence is timing-dependent (min-alignment across
    // subtask slots can merge steps depending on queue interleaving). With
    // a single final watermark every window fires over the complete
    // buffers, so the multiset is the full per-overlap duplication in both
    // engines and the comparison isolates the parallelism knob. Set-level
    // equivalence across cadences is covered by the Watermark* tests.
    constexpr int kEndOfStreamOnly = 1 << 20;
    ExecutorOptions reference_options;
    reference_options.watermark_interval = kEndOfStreamOnly;
    ExecutionResult reference_run =
        RunJob(&reference_job->graph, reference_job->sink, reference_options);
    ASSERT_TRUE(reference_run.ok) << reference_run.error;
    auto reference = test::MatchMultiset(reference_job->sink->tuples());
    ASSERT_FALSE(reference.empty()) << c.name;

    for (int parallelism : {1, 2, 4}) {
      for (size_t batch : {size_t{1}, size_t{64}}) {
        for (bool chaining : {true, false}) {
          for (bool compile_exprs : {true, false}) {
            TranslatorOptions opt = o3;
            opt.parallelism = parallelism;
            opt.compile_expressions = compile_exprs;
            auto compiled = TranslatePattern(c.pattern, opt,
                                             workload_.MakeSourceFactory());
            ASSERT_TRUE(compiled.ok()) << compiled.status();
            if (!chaining) UnchainAll(&compiled->graph);
            ThreadedExecutorOptions options;
            options.batch_size = batch;
            options.watermark_interval = kEndOfStreamOnly;
            ThreadedExecutor executor(&compiled->graph, options);
            ExecutionResult result = executor.Run(compiled->sink);
            ASSERT_TRUE(result.ok) << c.name << ": " << result.error;
            EXPECT_EQ(test::MatchMultiset(compiled->sink->tuples()),
                      reference)
                << c.name << " parallelism=" << parallelism
                << " batch_size=" << batch << " chaining=" << chaining
                << " compile_exprs=" << compile_exprs;
            EXPECT_TRUE(result.scheduler.used) << c.name;
            if (parallelism > 1) {
              // The partitioned stages must actually have been expanded.
              EXPECT_FALSE(result.partition_skew.empty())
                  << c.name << " parallelism=" << parallelism;
            }
            if (chaining && (!compile_exprs || parallelism == 1)) {
              // The translated plans must contain at least one fusable
              // forward run — otherwise this axis tests nothing. With
              // compiled expressions at parallelism > 1 the filter→key
              // prefix is already one operator wedged between a source
              // edge and a hash edge, so no chainable edge remains —
              // the fusion subsumed what chaining used to buy there.
              const ChainLayout layout = ComputeChainLayout(compiled->graph);
              EXPECT_GT(layout.fused_edge_count(), 0)
                  << c.name << " parallelism=" << parallelism
                  << " compile_exprs=" << compile_exprs;
            }
          }
        }
      }
    }
  }
}

TEST_F(InvarianceTest, StateSamplingDoesNotChangeResults) {
  Pattern p = Seq3();
  ExecutorOptions sampled;
  sampled.state_sample_interval = 64;
  sampled.watermark_interval = 32;
  ExecutorOptions unsampled;
  unsampled.state_sample_interval = 0;
  unsampled.watermark_interval = 32;
  EXPECT_EQ(RunWithExecutorOptions(p, sampled),
            RunWithExecutorOptions(p, unsampled));
}

TEST_F(InvarianceTest, InterleavedSourceOrderIrrelevantForO1) {
  // Interval-join plans are duplicate-free, so even raw emission counts
  // must be invariant to watermark cadence.
  Pattern p = Seq3();
  TranslatorOptions o1;
  o1.use_interval_join = true;
  std::vector<std::string> reference;
  for (int interval : {1, 50, 997}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    auto matches = RunWithExecutorOptions(p, options, o1);
    if (reference.empty()) reference = matches;
    EXPECT_EQ(matches, reference) << "watermark_interval=" << interval;
  }
}

}  // namespace
}  // namespace cep2asp
