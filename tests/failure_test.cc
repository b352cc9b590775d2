// Failure injection: operator errors, simulated memory exhaustion, and
// mid-pipeline faults must surface as clean job failures in both
// executors (no hangs, no silent data loss).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

std::vector<SimpleEvent> MakeEvents(int count) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(0, 1, i * 1000, i));
  }
  return events;
}

/// Fails after processing `fail_after` tuples.
class FaultyOperator : public Operator {
 public:
  explicit FaultyOperator(int fail_after) : fail_after_(fail_after) {}

  std::string name() const override { return "faulty"; }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    return std::make_unique<FaultyOperator>(fail_after_);
  }

  Status Process(int, Tuple tuple, Collector* out) override {
    if (++processed_ > fail_after_) {
      return Status::Internal("injected operator fault");
    }
    out->Emit(std::move(tuple));
    return Status::OK();
  }

 private:
  int fail_after_;
  int processed_ = 0;
};

/// Fails in Open().
class BadOpenOperator : public Operator {
 public:
  std::string name() const override { return "bad-open"; }
  Status Open() override { return Status::FailedPrecondition("cannot open"); }
  Status Process(int, Tuple, Collector*) override { return Status::OK(); }
};

JobGraph BuildFaultyGraph(int fail_after, CollectSink** sink_out) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(1000)));
  NodeId faulty = graph.AddOperatorAfter(
      src, std::make_unique<FaultyOperator>(fail_after));
  auto sink = std::make_unique<CollectSink>();
  *sink_out = sink.get();
  graph.AddOperatorAfter(faulty, std::move(sink));
  return graph;
}

TEST(FailureTest, OperatorFaultStopsSingleThreadedRun) {
  CollectSink* sink = nullptr;
  JobGraph graph = BuildFaultyGraph(100, &sink);
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("injected operator fault"), std::string::npos);
  EXPECT_NE(result.error.find("faulty"), std::string::npos)
      << "error should name the failing operator";
  EXPECT_EQ(sink->count(), 100);
}

/// Runs `executor` and aborts the process if Run has not returned within
/// `limit`, so a deadlocked error unwind fails fast instead of hanging.
ExecutionResult RunWithDeadline(ThreadedExecutor* executor, CollectSink* sink,
                                std::chrono::seconds limit) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "ThreadedExecutor::Run hung after a fault\n");
      std::abort();
    }
  });
  ExecutionResult result = executor->Run(sink);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
  return result;
}

TEST(FailureTest, OperatorFaultStopsThreadedRunWithoutDeadlock) {
  // The fault fires inside a hash-partitioned subtask while the source
  // keeps pushing into small channels, so producers sit parked on credit
  // when the error lands. Closing every channel and waking every parked
  // task must unwind the whole job on any pool size.
  std::vector<SimpleEvent> events;
  for (int i = 0; i < 100000; ++i) {
    events.push_back(Ev(0, i % 16, i * 1000, i));
  }
  for (int parallelism : {1, 4}) {
    for (int workers : {1, 2}) {
      JobGraph graph;
      NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
      NodeId keyed = graph.AddOperatorAfter(
          src, MapOperator::KeyByAttribute(0, Attribute::kId));
      NodeId faulty = graph.AddOperator(std::make_unique<FaultyOperator>(100));
      CEP2ASP_CHECK_OK(graph.Connect(keyed, faulty, 0, PartitionMode::kHash));
      CEP2ASP_CHECK_OK(graph.SetParallelism(faulty, parallelism));
      auto sink_op = std::make_unique<CollectSink>();
      CollectSink* sink = sink_op.get();
      graph.AddOperatorAfter(faulty, std::move(sink_op));

      ThreadedExecutorOptions options;
      options.queue_capacity = 16;  // small queues: producers park quickly
      options.worker_threads = workers;
      ThreadedExecutor executor(&graph, options);
      ExecutionResult result =
          RunWithDeadline(&executor, sink, std::chrono::seconds(60));
      EXPECT_FALSE(result.ok)
          << "parallelism=" << parallelism << " workers=" << workers;
      EXPECT_NE(result.error.find("injected operator fault"), std::string::npos)
          << "parallelism=" << parallelism << " workers=" << workers << ": "
          << result.error;
      EXPECT_NE(result.error.find("faulty"), std::string::npos)
          << "error should name the failing operator: " << result.error;
    }
  }
}

/// Two-input pass-through (a join's shape) that fails on the `fail_at`-th
/// tuple carrying key `fail_key`. Hash routing sends that key to exactly
/// one subtask, so exactly one subtask instance fails.
class FaultyJoin : public Operator {
 public:
  FaultyJoin(int64_t fail_key, int fail_at)
      : fail_key_(fail_key), fail_at_(fail_at) {}

  std::string name() const override { return "faulty-join"; }
  int num_inputs() const override { return 2; }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    return std::make_unique<FaultyJoin>(fail_key_, fail_at_);
  }

  Status Process(int, Tuple tuple, Collector* out) override {
    if (tuple.key() == fail_key_ && ++seen_ == fail_at_) {
      return Status::Internal("injected join fault");
    }
    out->Emit(std::move(tuple));
    return Status::OK();
  }

 private:
  int64_t fail_key_;
  int fail_at_;
  int seen_ = 0;
};

std::vector<SimpleEvent> KeyedEvents(EventTypeId type, int count) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(type, i % 16, i * 1000, i));
  }
  return events;
}

/// Asserts the clean-unwind contract of one failed threaded run: !ok, the
/// failing operator's context in `error`, every task finished (no task is
/// left parked: each park was matched by a wake-up).
void ExpectCleanFailure(const ExecutionResult& result, const char* fault,
                        const char* op, int tasks, const std::string& what) {
  EXPECT_FALSE(result.ok) << what;
  EXPECT_NE(result.error.find(fault), std::string::npos)
      << what << ": " << result.error;
  EXPECT_NE(result.error.find(op), std::string::npos)
      << what << ": error should name the failing operator: " << result.error;
  EXPECT_EQ(result.scheduler.num_tasks, tasks) << what;
  EXPECT_EQ(result.scheduler.total_parks(), result.scheduler.total_unparks())
      << what << ": a task was left parked";
}

TEST(FailureTest, FaultInSourceHeadedPrefixStopsRun) {
  // source -> faulty -> key-by fuses into the source's task; the fault
  // fires inside that chain while the hash exchange behind it feeds four
  // parallel subtasks through small channels.
  for (int workers : {1, 2}) {
    JobGraph graph;
    NodeId src = graph.AddSource(
        std::make_unique<VectorSource>("s", KeyedEvents(0, 100000)));
    NodeId faulty =
        graph.AddOperatorAfter(src, std::make_unique<FaultyOperator>(5000));
    NodeId keyed = graph.AddOperatorAfter(
        faulty, MapOperator::KeyByAttribute(0, Attribute::kId));
    NodeId mapped = graph.AddOperator(
        std::make_unique<MapOperator>([](Tuple t) { return t; }, "identity"));
    CEP2ASP_CHECK_OK(graph.Connect(keyed, mapped, 0, PartitionMode::kHash));
    CEP2ASP_CHECK_OK(graph.SetParallelism(mapped, 4));
    auto sink_op = std::make_unique<CollectSink>();
    CollectSink* sink = sink_op.get();
    NodeId sink_id = graph.AddOperatorAfter(mapped, std::move(sink_op));
    CEP2ASP_CHECK_OK(graph.SetParallelism(sink_id, 4));

    const ChainLayout layout = ComputeChainLayout(graph);
    ASSERT_EQ(layout.chains[static_cast<size_t>(layout.chain_of[src])],
              (std::vector<NodeId>{src, faulty, keyed}));

    ThreadedExecutorOptions options;
    options.queue_capacity = 16;
    options.worker_threads = workers;
    ThreadedExecutor executor(&graph, options);
    ExecutionResult result =
        RunWithDeadline(&executor, sink, std::chrono::seconds(60));
    std::string what = "workers=";
    what += std::to_string(workers);
    ExpectCleanFailure(result, "injected operator fault", "faulty",
                       /*tasks=*/1 + 4, what);
    EXPECT_LE(sink->count(), 5000);
  }
}

/// Two sources keyed and hash-partitioned into a parallel FaultyJoin whose
/// subtasks each end in their own sink clone.
JobGraph BuildFaultyJoinGraph(int parallelism, CollectSink** sink_out,
                              NodeId* join_out) {
  JobGraph graph;
  NodeId join = graph.AddOperator(std::make_unique<FaultyJoin>(3, 500));
  for (int port = 0; port < 2; ++port) {
    std::string name = "s";
    name += std::to_string(port);
    NodeId src = graph.AddSource(
        std::make_unique<VectorSource>(name, KeyedEvents(port, 50000)));
    NodeId keyed = graph.AddOperatorAfter(
        src, MapOperator::KeyByAttribute(0, Attribute::kId));
    CEP2ASP_CHECK_OK(graph.Connect(keyed, join, port, PartitionMode::kHash));
  }
  CEP2ASP_CHECK_OK(graph.SetParallelism(join, parallelism));
  auto sink_op = std::make_unique<CollectSink>();
  *sink_out = sink_op.get();
  NodeId sink = graph.AddOperatorAfter(join, std::move(sink_op));
  CEP2ASP_CHECK_OK(graph.SetParallelism(sink, parallelism));
  *join_out = join;
  return graph;
}

TEST(FailureTest, FaultInJoinSubtaskFusedWithSinkCloneStopsRun) {
  for (bool chaining : {true, false}) {
    for (int workers : {1, 2}) {
      CollectSink* sink = nullptr;
      NodeId join = -1;
      JobGraph graph = BuildFaultyJoinGraph(4, &sink, &join);
      if (!chaining) UnchainAll(&graph);
      const ChainLayout layout = ComputeChainLayout(graph);
      const std::vector<NodeId>& join_chain =
          layout.chains[static_cast<size_t>(layout.chain_of[join])];
      // Chained: each join subtask ends in its own sink clone. Unchained:
      // the sinks run as four tasks of their own behind real channels.
      EXPECT_EQ(join_chain.size(), chaining ? 2u : 1u);

      ThreadedExecutorOptions options;
      options.queue_capacity = 16;
      options.worker_threads = workers;
      ThreadedExecutor executor(&graph, options);
      ExecutionResult result =
          RunWithDeadline(&executor, sink, std::chrono::seconds(60));
      // Chained: 2 source chains + 4 join->sink subtasks. Unchained: 2
      // sources + 2 key-bys + 4 joins + 4 sinks.
      std::string what = "chaining=";
      what += std::to_string(chaining);
      what += " workers=";
      what += std::to_string(workers);
      ExpectCleanFailure(result, "injected join fault", "faulty-join",
                         chaining ? 2 + 4 : 2 + 2 + 4 + 4, what);
      // The sink clones of the surviving subtasks folded into `sink`.
      EXPECT_EQ(sink->count(), static_cast<int64_t>(sink->tuples().size()));
      EXPECT_EQ(sink->latencies().size(), sink->tuples().size());
    }
  }
}

TEST(FailureTest, OpenFailureReportedBeforeProcessing) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(10)));
  NodeId bad = graph.AddOperatorAfter(src, std::make_unique<BadOpenOperator>());
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(bad, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(sink->count(), 0);
}

TEST(FailureTest, InvalidWindowSpecRejectedAtOpen) {
  JobGraph graph;
  NodeId l = graph.AddSource(std::make_unique<VectorSource>("l", MakeEvents(1)));
  NodeId r = graph.AddSource(std::make_unique<VectorSource>("r", MakeEvents(1)));
  // slide > size is invalid.
  NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{100, 500}, Predicate(), TimestampMode::kMax));
  CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
  CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(join, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
}

TEST(FailureTest, MemoryLimitAbortsMidRun) {
  // A join with an enormous window accumulates state until the budget
  // trips — the simulated OOM of §5.2.3.
  std::vector<SimpleEvent> left, right;
  for (int i = 0; i < 50000; ++i) {
    left.push_back(Ev(0, 1, i, 1));
    right.push_back(Ev(1, 1, i, 2));
  }
  JobGraph graph;
  NodeId l = graph.AddSource(std::make_unique<VectorSource>("l", left));
  NodeId r = graph.AddSource(std::make_unique<VectorSource>("r", right));
  NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{kMillisPerMinute * 60 * 24, kMillisPerMinute},
      Predicate(), TimestampMode::kMax));
  CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
  CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(join, std::move(sink_op));

  ExecutorOptions options;
  options.memory_limit_bytes = 256 * 1024;
  ExecutionResult result = RunJob(&graph, sink, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ResourceExhausted"), std::string::npos);
  EXPECT_GT(result.peak_state_bytes, options.memory_limit_bytes);
}

TEST(FailureTest, TranslationFailuresAreStatusesNotCrashes) {
  EventTypeId t = EventTypeRegistry::Global()->RegisterOrGet("FailT");
  // Pattern without window.
  auto no_window = PatternBuilder()
                       .Seq(PatternBuilder::Atom(t, "a"),
                            PatternBuilder::Atom(t, "b"))
                       .Build();
  EXPECT_FALSE(no_window.ok());

  // FCEP on AND: Unimplemented, not a crash.
  Pattern conj = PatternBuilder()
                     .And(PatternBuilder::Atom(t, "a"),
                          PatternBuilder::Atom(t, "b"))
                     .Within(kMillisPerMinute)
                     .Build()
                     .ValueOrDie();
  auto cep = BuildCepJob(
      conj, [](EventTypeId) -> std::unique_ptr<Source> { return nullptr; });
  EXPECT_TRUE(cep.status().IsUnimplemented());
}

}  // namespace
}  // namespace cep2asp
