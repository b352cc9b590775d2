#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "asp/stateless.h"
#include "runtime/bounded_queue.h"
#include "runtime/channel.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/rate_limited_source.h"
#include "runtime/sink.h"
#include "runtime/spsc_ring.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

std::vector<SimpleEvent> MakeEvents(EventTypeId type, int count,
                                    Timestamp step = 1000) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(type, i, static_cast<Timestamp>(i) * step,
                        static_cast<double>(i)));
  }
  return events;
}

// --- Exchange containers -----------------------------------------------------
//
// Both containers are non-blocking: TryPushN moves the prefix that fits and
// TryPopN takes what is there; the task scheduler does all waiting. The
// helpers below make one call each.

template <typename Queue>
size_t PushInts(Queue* q, std::vector<int> items, bool* closed = nullptr) {
  bool was_closed = false;
  const size_t moved = q->TryPushN(items.data(), items.size(), &was_closed);
  if (closed != nullptr) *closed = was_closed;
  return moved;
}

template <typename Queue>
std::vector<int> PopInts(Queue* q, size_t max_items, bool* eos = nullptr) {
  std::vector<int> out;
  bool end = false;
  q->TryPopN(&out, max_items, &end);
  if (eos != nullptr) *eos = end;
  return out;
}

// Producer and consumer loops as a task would run them, with a yield in
// place of parking when a call moves nothing.
template <typename Queue, typename T>
void PushAllYielding(Queue* q, std::vector<T>* items) {
  size_t done = 0;
  while (done < items->size()) {
    bool closed = false;
    const size_t moved =
        q->TryPushN(items->data() + done, items->size() - done, &closed);
    ASSERT_FALSE(closed);
    done += moved;
    if (moved == 0) std::this_thread::yield();
  }
  items->clear();
}

template <typename Queue, typename T, typename Fn>
void DrainYielding(Queue* q, size_t max_items, Fn on_item) {
  std::vector<T> popped;
  bool eos = false;
  while (!eos) {
    if (q->TryPopN(&popped, max_items, &eos) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const T& v : popped) on_item(v);
  }
}

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(PushInts(&q, {1}), 1u);
  ASSERT_EQ(PushInts(&q, {2}), 1u);
  EXPECT_EQ(PopInts(&q, 1), std::vector<int>{1});
  EXPECT_EQ(PopInts(&q, 1), std::vector<int>{2});
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(PushInts(&q, {7}), 1u);
  q.Close();
  bool eos = true;
  EXPECT_EQ(PopInts(&q, 64, &eos), std::vector<int>{7});
  EXPECT_FALSE(eos);
  EXPECT_TRUE(PopInts(&q, 64, &eos).empty());
  EXPECT_TRUE(eos);
  bool closed = false;
  EXPECT_EQ(PushInts(&q, {8}, &closed), 0u);
  EXPECT_TRUE(closed);
}

TEST(BoundedQueueTest, FullQueueTakesNothing) {
  BoundedQueue<int> q(1);
  ASSERT_EQ(PushInts(&q, {1}), 1u);
  bool closed = true;
  EXPECT_EQ(PushInts(&q, {2}, &closed), 0u);
  EXPECT_FALSE(closed);  // full, not closed: the producer parks on a credit
  EXPECT_EQ(PopInts(&q, 64), std::vector<int>{1});
  EXPECT_EQ(PushInts(&q, {2}), 1u);
  EXPECT_EQ(PopInts(&q, 64), std::vector<int>{2});
}

TEST(BoundedQueueTest, TryPushNAccountsCapacityInItems) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(PushInts(&q, {1, 2, 3}), 3u);
  // Of the next three only one fits the capacity of 4.
  ASSERT_EQ(PushInts(&q, {4, 5, 6}), 1u);
  EXPECT_EQ(PopInts(&q, 64), (std::vector<int>{1, 2, 3, 4}));
  // The retried suffix goes through once the consumer freed space.
  ASSERT_EQ(PushInts(&q, {5, 6}), 2u);
  EXPECT_EQ(PopInts(&q, 1), std::vector<int>{5});
  EXPECT_EQ(PopInts(&q, 64), std::vector<int>{6});
}

TEST(BoundedQueueTest, OversizedBatchMovesOnlyTheFreePrefix) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(PushInts(&q, {1, 2, 3, 4, 5}), 2u);
  EXPECT_EQ(PopInts(&q, 64), (std::vector<int>{1, 2}));
  EXPECT_EQ(PushInts(&q, {3, 4, 5}), 2u);
  EXPECT_EQ(PopInts(&q, 64), (std::vector<int>{3, 4}));
  EXPECT_EQ(PushInts(&q, {5}), 1u);
  EXPECT_EQ(PopInts(&q, 64), std::vector<int>{5});
}

TEST(BoundedQueueTest, TryPopNDrainsThenSignalsEndOfStream) {
  BoundedQueue<int> q(8);
  bool eos = true;
  EXPECT_TRUE(PopInts(&q, 64, &eos).empty());
  EXPECT_FALSE(eos);  // empty but open: the consumer parks
  ASSERT_EQ(PushInts(&q, {7, 8}), 2u);
  q.Close();
  EXPECT_EQ(PopInts(&q, 1, &eos), std::vector<int>{7});
  EXPECT_FALSE(eos);
  EXPECT_EQ(PopInts(&q, 64, &eos), std::vector<int>{8});
  EXPECT_FALSE(eos);
  EXPECT_TRUE(PopInts(&q, 64, &eos).empty());
  EXPECT_TRUE(eos);
}

TEST(BoundedQueueTest, TwoProducersKeepPerProducerOrder) {
  BoundedQueue<int64_t> q(64);
  constexpr int64_t kCount = 20000;
  auto produce = [&q](int64_t tag) {
    std::vector<int64_t> batch;
    for (int64_t i = 0; i < kCount; ++i) {
      batch.push_back(tag * kCount + i);
      if (batch.size() == 7) PushAllYielding(&q, &batch);
    }
    PushAllYielding(&q, &batch);
  };
  int64_t next[2] = {0, 0};
  std::thread consumer([&q, &next] {
    DrainYielding<BoundedQueue<int64_t>, int64_t>(&q, 13, [&next](int64_t v) {
      const int64_t tag = v / kCount;
      EXPECT_EQ(v % kCount, next[tag]++);
    });
  });
  std::thread p0(produce, 0);
  std::thread p1(produce, 1);
  p0.join();
  p1.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(next[0], kCount);
  EXPECT_EQ(next[1], kCount);
}

// --- SpscRing ----------------------------------------------------------------

TEST(SpscRingTest, FifoOrderWithWraparound) {
  SpscRing<int> ring(4);  // rounds to a small power of two
  ASSERT_EQ(ring.capacity(), 4u);
  int next_push = 0, next_pop = 0;
  // Push/pop interleaved so the indices wrap the ring many times.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_EQ(PushInts(&ring, {next_push++}), 1u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(PopInts(&ring, 1), std::vector<int>{next_pop++});
    }
  }
  bool eos = true;
  EXPECT_TRUE(PopInts(&ring, 64, &eos).empty());
  EXPECT_FALSE(eos);
}

TEST(SpscRingTest, CrossThreadTransferPreservesOrder) {
  SpscRing<int64_t> ring(64);
  constexpr int64_t kCount = 20000;
  std::thread producer([&ring] {
    std::vector<int64_t> batch;
    for (int64_t i = 0; i < kCount; ++i) {
      batch.push_back(i);
      if (batch.size() == 7) PushAllYielding(&ring, &batch);
    }
    PushAllYielding(&ring, &batch);
    ring.Close();
  });
  int64_t expected = 0;
  DrainYielding<SpscRing<int64_t>, int64_t>(
      &ring, 13, [&expected](int64_t v) { EXPECT_EQ(v, expected++); });
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(SpscRingTest, PartialPushThenCloseRejectsTheRest) {
  SpscRing<int> ring(4);
  ASSERT_EQ(PushInts(&ring, {0, 1, 2, 3}), 4u);
  bool closed = true;
  EXPECT_EQ(PushInts(&ring, {4, 5, 6}, &closed), 0u);  // full
  EXPECT_FALSE(closed);
  EXPECT_EQ(PopInts(&ring, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(PushInts(&ring, {4, 5, 6}), 2u);  // only the free prefix
  ring.Close();
  EXPECT_EQ(PushInts(&ring, {6}, &closed), 0u);
  EXPECT_TRUE(closed);
  // The consumer still drains everything published before the close. A
  // pop may stop at the consumer's cached view of the tail, so drain until
  // end-of-stream.
  std::vector<int> drained;
  DrainYielding<SpscRing<int>, int>(
      &ring, 64, [&drained](int v) { drained.push_back(v); });
  EXPECT_EQ(drained, (std::vector<int>{2, 3, 4, 5}));
}

TEST(SpscRingTest, CloseEndsStreamForPollingConsumer) {
  SpscRing<int> ring(4);
  bool eos = true;
  EXPECT_TRUE(PopInts(&ring, 8, &eos).empty());
  EXPECT_FALSE(eos);  // empty but open: the consumer parks
  int64_t seen = 0;
  std::thread consumer([&ring, &seen] {
    DrainYielding<SpscRing<int>, int>(&ring, 8, [&seen](int) { ++seen; });
  });
  ring.Close();
  consumer.join();
  EXPECT_EQ(seen, 0);
}

// --- Channels ----------------------------------------------------------------

std::unique_ptr<Channel> MakeTestChannel(bool spsc, size_t capacity = 1024) {
  return MakeChannel(spsc ? 1 : 2, capacity);
}

MessageBatch DataBatch(int count) {
  MessageBatch batch;
  for (int i = 0; i < count; ++i) {
    batch.push_back(Message::Data(0, Tuple(test::Ev(0, i, 1000 + i))));
  }
  return batch;
}

TEST(ChannelTest, SelectionByFanIn) {
  EXPECT_TRUE(MakeChannel(1, 16)->is_spsc());
  EXPECT_FALSE(MakeChannel(2, 16)->is_spsc());  // MPMC fallback
}

TEST(ChannelTest, ControlStaysBehindTuplesAcrossBatchBoundaries) {
  for (bool spsc : {false, true}) {
    auto channel = MakeTestChannel(spsc);
    ASSERT_EQ(channel->is_spsc(), spsc);
    MessageBatch batch = DataBatch(5);
    batch.push_back(Message::Control(MessageKind::kWatermark, 0, 999));
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    batch.push_back(Message::Control(MessageKind::kEnd, 0, 0));
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    channel->Close();

    // Pop with a smaller batch limit than was pushed: order must hold.
    std::vector<MessageKind> kinds;
    MessageBatch in;
    bool eos = false;
    while (channel->TryPopBatch(&in, 2, &eos) > 0) {
      for (const Message& m : in) kinds.push_back(m.kind);
    }
    EXPECT_TRUE(eos);
    ASSERT_EQ(kinds.size(), 7u) << (spsc ? "spsc" : "mpmc");
    for (int i = 0; i < 5; ++i) EXPECT_EQ(kinds[i], MessageKind::kTuple);
    EXPECT_EQ(kinds[5], MessageKind::kWatermark);
    EXPECT_EQ(kinds[6], MessageKind::kEnd);
  }
}

TEST(ChannelTest, SnapshotCountsBatchesAndMessages) {
  for (bool spsc : {false, true}) {
    auto channel = MakeTestChannel(spsc);
    MessageBatch batch = DataBatch(64);
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    batch = DataBatch(1);
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    ChannelStats stats = channel->Snapshot("op");
    EXPECT_EQ(stats.batches, 2);
    EXPECT_EQ(stats.messages, 65);
    EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(64)], 1);
    EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(1)], 1);
    EXPECT_EQ(stats.spsc, spsc);
    EXPECT_DOUBLE_EQ(stats.avg_fill(), 32.5);
  }
}

// The executor's backpressure contract: a push into a nearly full channel
// moves the free prefix and reports kBlocked, the producing task retries
// the suffix with first_attempt == false after a credit, and the stats
// count the logical batch once but every message.
TEST(ChannelTest, PartialPushMovesFreePrefixAndRetryCountsOnce) {
  for (bool spsc : {false, true}) {
    SCOPED_TRACE(spsc ? "spsc" : "mpmc");
    auto channel = MakeTestChannel(spsc, /*capacity=*/8);
    int pushes = 0, credits = 0;
    channel->SetReadinessHooks([&pushes] { ++pushes; },
                               [&credits] { ++credits; });
    MessageBatch first = DataBatch(4);
    ASSERT_EQ(channel->TryPushBatch(&first), TryPush::kPushed);
    EXPECT_TRUE(first.empty());

    MessageBatch batch = DataBatch(6);
    batch.hdr_valid = true;
    batch.hdr_port = 1;
    batch.hdr_slot = 3;
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kBlocked);
    ASSERT_EQ(batch.size(), 2u);  // the unmoved suffix stays with the producer
    EXPECT_EQ(pushes, 2);
    // Still full: a retry moves nothing and wakes nobody.
    ASSERT_EQ(channel->TryPushBatch(&batch, /*first_attempt=*/false),
              TryPush::kBlocked);
    EXPECT_EQ(pushes, 2);

    MessageBatch in;
    bool eos = true;
    ASSERT_EQ(channel->TryPopBatch(&in, 64, &eos), 8u);
    EXPECT_FALSE(eos);
    EXPECT_EQ(credits, 1);
    std::vector<Message> popped(in.begin(), in.end());

    ASSERT_EQ(channel->TryPushBatch(&batch, /*first_attempt=*/false),
              TryPush::kPushed);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(pushes, 3);
    ASSERT_EQ(channel->TryPopBatch(&in, 64, &eos), 2u);
    popped.insert(popped.end(), in.begin(), in.end());

    ASSERT_EQ(popped.size(), 10u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(popped[i].port, 0);
      EXPECT_EQ(popped[i].slot, 0);
    }
    // The header reaches the retried suffix as well as the first prefix.
    for (size_t i = 4; i < 10; ++i) {
      EXPECT_EQ(popped[i].port, 1) << i;
      EXPECT_EQ(popped[i].slot, 3) << i;
    }

    ChannelStats stats = channel->Snapshot("op");
    EXPECT_EQ(stats.batches, 2);
    EXPECT_EQ(stats.messages, 10);
    EXPECT_EQ(stats.tuples, 10);
    int64_t hist_total = 0;
    for (int64_t n : stats.fill_hist) hist_total += n;
    EXPECT_EQ(hist_total, 2);
    EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(4)], 1);
    EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(6)], 1);
  }
}

TEST(ChannelTest, PushAfterCloseReportsClosedAndDropsBatch) {
  for (bool spsc : {false, true}) {
    SCOPED_TRACE(spsc ? "spsc" : "mpmc");
    auto channel = MakeTestChannel(spsc);
    MessageBatch batch = DataBatch(1);
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    channel->Close();
    batch = DataBatch(2);
    EXPECT_EQ(channel->TryPushBatch(&batch), TryPush::kClosed);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(channel->Snapshot("op").messages, 1);

    MessageBatch in;
    bool eos = true;
    EXPECT_EQ(channel->TryPopBatch(&in, 64, &eos), 1u);
    EXPECT_FALSE(eos);
    EXPECT_EQ(channel->TryPopBatch(&in, 64, &eos), 0u);
    EXPECT_TRUE(eos);
  }
}

TEST(ChannelStatsTest, FillBuckets) {
  EXPECT_EQ(ChannelStats::FillBucket(1), 0);
  EXPECT_EQ(ChannelStats::FillBucket(2), 1);
  EXPECT_EQ(ChannelStats::FillBucket(3), 2);
  EXPECT_EQ(ChannelStats::FillBucket(4), 2);
  EXPECT_EQ(ChannelStats::FillBucket(5), 3);
  EXPECT_EQ(ChannelStats::FillBucket(64), 6);
  EXPECT_EQ(ChannelStats::FillBucket(1000), 7);
}

// --- JobGraph ----------------------------------------------------------------

TEST(JobGraphTest, ValidatesMissingInput) {
  JobGraph graph;
  graph.AddOperator(std::make_unique<UnionOperator>(2));
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, ValidatesDoubleConnection) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperator(std::make_unique<UnionOperator>(1));
  ASSERT_TRUE(graph.Connect(src, op, 0).ok());
  ASSERT_TRUE(graph.Connect(src, op, 0).ok());  // second edge into port 0
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, RejectsConnectIntoSource) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 1)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(0, 1)));
  EXPECT_FALSE(graph.Connect(a, b, 0).ok());
}

TEST(JobGraphTest, RejectsBadPort) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperator(std::make_unique<UnionOperator>(1));
  EXPECT_FALSE(graph.Connect(src, op, 1).ok());
}

TEST(JobGraphTest, TopologicalOrderSourcesFirst) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperatorAfter(src, std::make_unique<UnionOperator>(1));
  NodeId sink = graph.AddOperatorAfter(op, std::make_unique<CollectSink>());
  auto order = graph.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], src);
  EXPECT_EQ(order[2], sink);
}

// --- PipelineExecutor ----------------------------------------------------------

TEST(ExecutorTest, PassthroughDeliversAllTuples) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100)));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples_ingested, 100);
  EXPECT_EQ(result.matches_emitted, 100);
  EXPECT_EQ(sink->tuples().size(), 100u);
}

TEST(ExecutorTest, MergesSourcesInEventTimeOrder) {
  JobGraph graph;
  std::vector<SimpleEvent> odd, even;
  for (int i = 0; i < 10; ++i) {
    (i % 2 ? odd : even).push_back(Ev(0, i, i * 100, 0));
  }
  NodeId a = graph.AddSource(std::make_unique<VectorSource>("odd", odd));
  NodeId b = graph.AddSource(std::make_unique<VectorSource>("even", even));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(sink->tuples().size(), 10u);
  for (size_t i = 1; i < sink->tuples().size(); ++i) {
    EXPECT_LE(sink->tuples()[i - 1].event_time(), sink->tuples()[i].event_time());
  }
}

TEST(ExecutorTest, FilterDropsNonMatching) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>(
               [](const Tuple& t) { return t.event(0).value < 10; }));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(sink->count(), 10);
}

TEST(ExecutorTest, MemoryLimitFailsJob) {
  // A sink storing every tuple grows state beyond a tiny budget; the
  // executor reports the simulated memory exhaustion (paper §5.2.3: FCEP
  // execution failure due to memory exhaustion).
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100000)));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/true);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutorOptions options;
  options.memory_limit_bytes = 64 * 1024;
  ExecutionResult result = RunJob(&graph, sink, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ResourceExhausted"), std::string::npos);
}

TEST(ExecutorTest, StateTimelineSampled) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 10000)));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/true);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutorOptions options;
  options.watermark_interval = 64;
  options.state_sample_interval = 512;
  ExecutionResult result = RunJob(&graph, sink, options);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.state_timeline.size(), 5u);
  EXPECT_GT(result.peak_state_bytes, 0u);
}

// --- ThreadedExecutor ------------------------------------------------------------

TEST(ThreadedExecutorTest, MatchesSingleThreadedResults) {
  auto build = [](CollectSink** sink_out) {
    auto graph = std::make_unique<JobGraph>();
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 5000)));
    NodeId filter = graph->AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value >= 100; }));
    auto sink_op = std::make_unique<CollectSink>();
    *sink_out = sink_op.get();
    graph->AddOperatorAfter(filter, std::move(sink_op));
    return graph;
  };

  CollectSink* sink1 = nullptr;
  auto graph1 = build(&sink1);
  ExecutionResult r1 = RunJob(graph1.get(), sink1);

  CollectSink* sink2 = nullptr;
  auto graph2 = build(&sink2);
  ThreadedExecutor threaded(graph2.get());
  ExecutionResult r2 = threaded.Run(sink2);

  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.matches_emitted, r2.matches_emitted);
  EXPECT_EQ(test::MatchSet(sink1->tuples()), test::MatchSet(sink2->tuples()));
}

TEST(ThreadedExecutorTest, TwoSourceUnion) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 1000)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(1, 1000)));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 2000);
}

TEST(ThreadedExecutorTest, BatchSizeDoesNotChangeResults) {
  auto build = [](CollectSink** sink_out) {
    auto graph = std::make_unique<JobGraph>();
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 3000)));
    NodeId filter = graph->AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value >= 100; }));
    auto sink_op = std::make_unique<CollectSink>();
    *sink_out = sink_op.get();
    graph->AddOperatorAfter(filter, std::move(sink_op));
    return graph;
  };

  CollectSink* ref_sink = nullptr;
  auto ref_graph = build(&ref_sink);
  ExecutionResult ref = RunJob(ref_graph.get(), ref_sink);
  ASSERT_TRUE(ref.ok);
  auto ref_set = test::MatchSet(ref_sink->tuples());

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    CollectSink* sink = nullptr;
    auto graph = build(&sink);
    ThreadedExecutorOptions options;
    options.batch_size = batch;
    ThreadedExecutor executor(graph.get(), options);
    ExecutionResult result = executor.Run(sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.matches_emitted, ref.matches_emitted)
        << "batch=" << batch;
    EXPECT_EQ(test::MatchSet(sink->tuples()), ref_set) << "batch=" << batch;
  }
}

TEST(ThreadedExecutorTest, SingleProducerEdgesUseSpscFastPath) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 500)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  // Chaining fuses filter -> sink, so only the source -> filter edge is a
  // real channel; opt every operator out to observe the per-edge channel
  // layout.
  UnchainAll(&graph);
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.channel_stats.size(), 2u);
  int64_t total_batches = 0;
  for (const ChannelStats& stats : result.channel_stats) {
    EXPECT_FALSE(stats.fused) << stats.ToString();
    EXPECT_TRUE(stats.spsc) << stats.ToString();
    // 500 tuples + watermarks + end, batched: far fewer pushes than
    // messages.
    EXPECT_GE(stats.messages, 500);
    EXPECT_LT(stats.batches, stats.messages);
    total_batches += stats.batches;
  }
  EXPECT_GT(total_batches, 0);
}

TEST(ThreadedExecutorTest, FusedEdgeReportedAsZeroTrafficChannel) {
  // Default chaining: source -> filter -> sink is one source-headed chain,
  // so no exchange channel exists at all. Both fused edges must still
  // report a ChannelStats entry, flagged `fused`, with the hand-off count
  // and zero queue traffic, and the whole job runs as a single task.
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 500)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 500);
  EXPECT_EQ(result.scheduler.num_tasks, 1);
  ASSERT_EQ(result.channel_stats.size(), 2u);
  bool saw_filter = false, saw_sink = false;
  for (const ChannelStats& stats : result.channel_stats) {
    EXPECT_TRUE(stats.fused) << stats.ToString();
    EXPECT_EQ(stats.tuples, 500) << stats.ToString();
    EXPECT_EQ(stats.batches, 0) << stats.ToString();
    EXPECT_EQ(stats.blocked_push_nanos, 0) << stats.ToString();
    saw_filter |= stats.consumer == "filter";
    saw_sink |= stats.consumer == "sink";
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_sink);
}

TEST(ThreadedExecutorTest, TwoProducerInputFallsBackToMpmcQueue) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 300)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(1, 300)));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 600);
  ASSERT_EQ(result.channel_stats.size(), 2u);
  bool saw_union = false, saw_sink = false;
  for (const ChannelStats& stats : result.channel_stats) {
    if (stats.consumer.rfind("union", 0) == 0) {
      EXPECT_FALSE(stats.fused) << stats.ToString();
      EXPECT_FALSE(stats.spsc) << "two producers must use the MPMC queue";
      saw_union = true;
    } else {
      // union -> sink fuses under default chaining: the sink's entry is a
      // fused pseudo-channel, not a queue.
      EXPECT_TRUE(stats.fused) << stats.ToString();
      EXPECT_EQ(stats.tuples, 600) << stats.ToString();
      saw_sink = true;
    }
  }
  EXPECT_TRUE(saw_union);
  EXPECT_TRUE(saw_sink);
}

// --- Operator chaining ------------------------------------------------------

/// Stateless pass-through without CloneForSubtask: legal at parallelism 1
/// but forces any neighbouring parallel chain to split around it.
class NonCloneablePass : public Operator {
 public:
  std::string name() const override { return "nonclone"; }
  Status Process(int, Tuple tuple, Collector* out) override {
    out->Emit(std::move(tuple));
    return Status::OK();
  }
};

TEST(ChainPlannerTest, FusesLinearForwardPipeline) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(0, 10)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  NodeId map = graph.AddOperatorAfter(
      filter, std::make_unique<MapOperator>([](Tuple t) { return t; }));
  NodeId sink = graph.AddOperatorAfter(map, std::make_unique<CollectSink>(false));

  // The source heads the chain: the whole pipeline is one task.
  ChainLayout layout = ComputeChainLayout(graph);
  ASSERT_EQ(layout.num_chains(), 1);
  EXPECT_EQ(layout.chains[0], (std::vector<NodeId>{src, filter, map, sink}));
  EXPECT_EQ(layout.edge_verdict[src][0], ChainBreak::kChained);
  EXPECT_EQ(layout.edge_verdict[filter][0], ChainBreak::kChained);
  EXPECT_EQ(layout.edge_verdict[map][0], ChainBreak::kChained);
  EXPECT_EQ(layout.fused_edge_count(), 3);
  EXPECT_TRUE(layout.is_head(src));
  EXPECT_FALSE(layout.is_head(filter));
  EXPECT_FALSE(layout.is_head(map));
  EXPECT_EQ(layout.chain_of[src], 0);
  EXPECT_EQ(layout.chain_of[map], 0);
  EXPECT_EQ(layout.pos_in_chain[sink], 3);
  EXPECT_EQ(layout.ToString(graph),
            "  chain 0: source s -> filter -> map -> sink\n");

  // Every operator opted out: the source and each operator are chains of
  // their own; the source edge reports the consumer's opt-out, the first
  // operator edge the producer's.
  UnchainAll(&graph);
  ChainLayout off = ComputeChainLayout(graph);
  EXPECT_EQ(off.num_chains(), 4);
  EXPECT_EQ(off.fused_edge_count(), 0);
  EXPECT_EQ(off.chains[static_cast<size_t>(off.chain_of[src])],
            std::vector<NodeId>{src});
  EXPECT_EQ(off.edge_verdict[src][0], ChainBreak::kConsumerOptedOut);
  EXPECT_EQ(off.edge_verdict[filter][0], ChainBreak::kProducerOptedOut);
}

TEST(ChainPlannerTest, BreaksOnFanOutFanInHashAndKnob) {
  // src -> split -> {left, right} -> union2 -> sink, with a hash edge
  // right -> union2: exercises fan-out, fan-in, and non-forward verdicts.
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(0, 10)));
  NodeId split = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; },
                                            "split"));
  NodeId left = graph.AddOperatorAfter(
      split, std::make_unique<MapOperator>([](Tuple t) { return t; }, "left"));
  NodeId right = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "right"));
  ASSERT_TRUE(graph.Connect(split, right, 0).ok());
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(left, u, 0).ok());
  ASSERT_TRUE(graph.Connect(right, u, 1, PartitionMode::kHash).ok());
  NodeId sink = graph.AddOperatorAfter(u, std::make_unique<CollectSink>(false));

  ChainLayout layout = ComputeChainLayout(graph);
  EXPECT_EQ(layout.edge_verdict[split][0], ChainBreak::kFanOut);
  EXPECT_EQ(layout.edge_verdict[split][1], ChainBreak::kFanOut);
  EXPECT_EQ(layout.edge_verdict[left][0], ChainBreak::kFanIn);
  EXPECT_EQ(layout.edge_verdict[right][0], ChainBreak::kNotForward);
  EXPECT_EQ(layout.edge_verdict[u][0], ChainBreak::kChained);
  // Chains: {s, split}, {left}, {right}, {union2, sink}.
  EXPECT_EQ(layout.num_chains(), 4);
  EXPECT_EQ(layout.chain_of[u], layout.chain_of[sink]);

  // The per-node knob breaks the union2 -> sink fusion.
  ASSERT_TRUE(graph.SetChaining(sink, false).ok());
  ChainLayout opted = ComputeChainLayout(graph);
  EXPECT_EQ(opted.edge_verdict[u][0], ChainBreak::kConsumerOptedOut);
  ASSERT_TRUE(graph.SetChaining(sink, true).ok());
  ASSERT_TRUE(graph.SetChaining(u, false).ok());
  opted = ComputeChainLayout(graph);
  EXPECT_EQ(opted.edge_verdict[u][0], ChainBreak::kProducerOptedOut);
  EXPECT_FALSE(graph.SetChaining(src, false).ok())
      << "a source always heads its chain";
}

TEST(ThreadedExecutorTest, ChainSplitAroundNonCloneableOperator) {
  // filter(x2) -> map(x2) fuses into a parallel chain; map ->
  // nonclone(x1) must split (parallelism mismatch), keeping the
  // CloneForSubtask-incapable operator on its own single subtask; nonclone
  // -> sink fuses again. The run must still deliver every tuple once.
  auto build = [](CollectSink** sink_out, JobGraph* graph, ChainLayout* layout) {
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 400)));
    NodeId filter = graph->AddOperator(std::make_unique<FilterOperator>(
        [](const Tuple&) { return true; }));
    ASSERT_TRUE(graph->Connect(src, filter, 0, PartitionMode::kHash).ok());
    NodeId map = graph->AddOperatorAfter(
        filter, std::make_unique<MapOperator>([](Tuple t) { return t; }));
    NodeId pass = graph->AddOperatorAfter(map,
                                          std::make_unique<NonCloneablePass>());
    auto sink_op = std::make_unique<CollectSink>(false);
    *sink_out = sink_op.get();
    NodeId sink = graph->AddOperatorAfter(pass, std::move(sink_op));
    ASSERT_TRUE(graph->SetParallelism(filter, 2).ok());
    ASSERT_TRUE(graph->SetParallelism(map, 2).ok());

    // Chains: {src} (its only edge is a hash edge), {filter, map} at x2,
    // {nonclone, sink}.
    *layout = ComputeChainLayout(*graph);
    EXPECT_EQ(layout->edge_verdict[src][0], ChainBreak::kNotForward);
    EXPECT_EQ(layout->edge_verdict[filter][0], ChainBreak::kChained);
    EXPECT_EQ(layout->edge_verdict[map][0], ChainBreak::kParallelismMismatch);
    EXPECT_EQ(layout->edge_verdict[pass][0], ChainBreak::kChained);
    EXPECT_EQ(layout->num_chains(), 3);
    EXPECT_EQ(layout->chains[static_cast<size_t>(layout->chain_of[src])],
              std::vector<NodeId>{src});
    EXPECT_EQ(layout->chains[static_cast<size_t>(layout->chain_of[filter])],
              (std::vector<NodeId>{filter, map}));
    EXPECT_EQ(layout->chains[static_cast<size_t>(layout->chain_of[pass])],
              (std::vector<NodeId>{pass, sink}));
    EXPECT_EQ(graph->parallelism(filter), 2);
  };

  std::vector<std::string> ref;
  for (bool chaining : {false, true}) {
    JobGraph graph;
    ChainLayout layout;
    CollectSink* sink = nullptr;
    build(&sink, &graph, &layout);
    if (!chaining) UnchainAll(&graph);
    ThreadedExecutor executor(&graph);
    ExecutionResult result = executor.Run(sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.matches_emitted, 400);
    if (!chaining) {
      // One task per operator subtask plus the source's.
      EXPECT_EQ(result.scheduler.num_tasks, 1 + 2 + 2 + 1 + 1);
      ref = test::MatchMultiset(sink->tuples());
      continue;
    }
    // source, filter->map x2, nonclone->sink.
    EXPECT_EQ(result.scheduler.num_tasks, 1 + 2 + 1);
    EXPECT_EQ(test::MatchMultiset(sink->tuples()), ref);
    // The parallel chain reports its skew from the fused hand-off counts.
    bool saw_map_skew = false;
    for (const PartitionSkew& skew : result.partition_skew) {
      if (skew.op == "map") {
        saw_map_skew = true;
        int64_t total = 0;
        for (int64_t t : skew.tuples_per_subtask) total += t;
        EXPECT_EQ(total, 400) << skew.ToString();
      }
    }
    EXPECT_TRUE(saw_map_skew);
  }
}

/// Buffers every tuple and re-emits the buffer on each watermark: models a
/// windowed operator whose results materialize in OnWatermark.
class HoldUntilWatermark : public Operator {
 public:
  std::string name() const override { return "hold"; }
  Status Process(int, Tuple tuple, Collector*) override {
    held_.push_back(std::move(tuple));
    return Status::OK();
  }
  Status OnWatermark(Timestamp, Collector* out) override {
    for (Tuple& t : held_) out->Emit(std::move(t));
    held_.clear();
    return Status::OK();
  }

 private:
  std::vector<Tuple> held_;
};

/// Logs the interleaving of Process and OnWatermark calls it observes.
class RecordingOperator : public Operator {
 public:
  struct Entry {
    bool is_watermark;
    Timestamp value;  // watermark, or the tuple's event time
  };

  explicit RecordingOperator(std::vector<Entry>* log) : log_(log) {}
  std::string name() const override { return "recorder"; }
  Status Process(int, Tuple tuple, Collector* out) override {
    log_->push_back({false, tuple.event_time()});
    out->Emit(std::move(tuple));
    return Status::OK();
  }
  Status OnWatermark(Timestamp watermark, Collector*) override {
    log_->push_back({true, watermark});
    return Status::OK();
  }

 private:
  std::vector<Entry>* log_;
};

TEST(ThreadedExecutorTest, ChainDeliversWatermarkEmissionsBeforeTheWatermark) {
  // src -> hold -> recorder -> sink chains into one subtask. Tuples hold
  // emits during OnWatermark(w) must reach the recorder's Process before
  // the chain forwards w to the recorder — otherwise a downstream windowed
  // operator would treat them as late and drop them.
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 200)));
  NodeId hold = graph.AddOperatorAfter(src, std::make_unique<HoldUntilWatermark>());
  std::vector<RecordingOperator::Entry> log;
  NodeId recorder = graph.AddOperatorAfter(
      hold, std::make_unique<RecordingOperator>(&log));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(recorder, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.watermark_interval = 32;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 200);

  // The whole pipeline behind the source fused into one chain.
  ChainLayout layout = ComputeChainLayout(graph);
  EXPECT_EQ(layout.num_chains(), 1);
  EXPECT_EQ(layout.chain_of[hold], layout.chain_of[recorder]);

  // Ordering: once the recorder saw watermark w, every following tuple
  // must be strictly newer than w (hold's buffered tuples, all <= w, were
  // delivered first).
  Timestamp last_watermark = kMinTimestamp;
  int watermarks_seen = 0;
  for (const RecordingOperator::Entry& entry : log) {
    if (entry.is_watermark) {
      EXPECT_GT(entry.value, last_watermark);
      last_watermark = entry.value;
      ++watermarks_seen;
    } else {
      EXPECT_GT(entry.value, last_watermark)
          << "tuple older than an already-forwarded watermark";
    }
  }
  EXPECT_GE(watermarks_seen, 2);
}

TEST(ThreadedExecutorTest, RateLimitedSourceStillFlushesPartialBatches) {
  // A slow source must not strand tuples in half-filled batches: the
  // adaptive staging plus flush-on-idle keeps matches flowing.
  JobGraph graph;
  NodeId src = graph.AddSource(std::make_unique<RateLimitedSource>(
      std::make_unique<VectorSource>("s", MakeEvents(0, 50)), 5000.0));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ThreadedExecutorOptions options;
  options.batch_size = 64;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 50);
}

// --- Metrics ----------------------------------------------------------------------

TEST(MetricsTest, LatencyStatsFromSamples) {
  std::vector<int64_t> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  LatencyStats stats = LatencyStats::FromSamples(samples);
  EXPECT_EQ(stats.count, 100);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 50.5);
  EXPECT_DOUBLE_EQ(stats.max_ms, 100.0);
  EXPECT_NEAR(stats.p50_ms, 50.0, 1.0);
  EXPECT_NEAR(stats.p99_ms, 99.0, 1.0);
}

TEST(MetricsTest, EmptySamples) {
  LatencyStats stats = LatencyStats::FromSamples({});
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 0.0);
}

// Selection must give exactly what indexing a fully sorted copy gives, on
// unsorted input with many duplicates, one sample, and no samples.
TEST(MetricsTest, LatencyStatsMatchSortedReference) {
  auto reference = [](std::vector<int64_t> samples) {
    LatencyStats stats;
    stats.count = static_cast<int64_t>(samples.size());
    if (samples.empty()) return stats;
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (int64_t s : samples) sum += static_cast<double>(s);
    stats.mean_ms = sum / static_cast<double>(samples.size());
    auto at = [&samples](double p) {
      return static_cast<double>(samples[static_cast<size_t>(
          p * static_cast<double>(samples.size() - 1))]);
    };
    stats.p50_ms = at(0.50);
    stats.p95_ms = at(0.95);
    stats.p99_ms = at(0.99);
    stats.max_ms = static_cast<double>(samples.back());
    return stats;
  };
  std::mt19937_64 rng(0x1a7e0c1);
  std::vector<std::vector<int64_t>> cases = {{}, {7}, {3, 3}, {5, 1, 5, 1}};
  for (size_t n : {2u, 3u, 17u, 100u, 101u, 1000u, 4099u}) {
    for (int64_t distinct : {1, 4, 1000000}) {
      std::vector<int64_t> samples(n);
      for (int64_t& s : samples) {
        s = static_cast<int64_t>(rng() % static_cast<uint64_t>(distinct));
      }
      cases.push_back(std::move(samples));
    }
  }
  for (const std::vector<int64_t>& samples : cases) {
    const LatencyStats want = reference(samples);
    const LatencyStats got = LatencyStats::FromSamples(samples);
    SCOPED_TRACE(samples.size());
    EXPECT_EQ(got.count, want.count);
    // Bit-identical, not merely close.
    EXPECT_EQ(got.mean_ms, want.mean_ms);
    EXPECT_EQ(got.p50_ms, want.p50_ms);
    EXPECT_EQ(got.p95_ms, want.p95_ms);
    EXPECT_EQ(got.p99_ms, want.p99_ms);
    EXPECT_EQ(got.max_ms, want.max_ms);
  }
}

TEST(MetricsTest, ThroughputFromResult) {
  ExecutionResult result;
  result.tuples_ingested = 1000;
  result.elapsed_seconds = 2.0;
  EXPECT_DOUBLE_EQ(result.throughput_tps(), 500.0);
}

TEST(PartitioningTest, KeyToSubtaskDeterministicAndCovering) {
  for (int64_t key = -5; key < 200; ++key) {
    EXPECT_EQ(KeyToSubtask(key, 1), 0);
    for (int parallelism : {2, 3, 4, 7}) {
      int subtask = KeyToSubtask(key, parallelism);
      EXPECT_GE(subtask, 0);
      EXPECT_LT(subtask, parallelism);
      EXPECT_EQ(subtask, KeyToSubtask(key, parallelism));
    }
  }
  // 128 sequential keys must address every subtask of a 4-way operator;
  // the mixer exists precisely so dense key ranges don't alias.
  std::vector<bool> hit(4, false);
  for (int64_t key = 0; key < 128; ++key) hit[KeyToSubtask(key, 4)] = true;
  for (bool h : hit) EXPECT_TRUE(h);
}

TEST(PartitioningTest, PhysicalFanInCountsProducerSubtasks) {
  JobGraph graph;
  NodeId s1 = graph.AddSource(
      std::make_unique<VectorSource>("s1", MakeEvents(0, 10)));
  NodeId s2 = graph.AddSource(
      std::make_unique<VectorSource>("s2", MakeEvents(0, 10)));
  NodeId m1 = graph.AddOperatorAfter(s1, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId m2 = graph.AddOperatorAfter(s2, MapOperator::KeyByAttribute(0, Attribute::kId));
  ASSERT_TRUE(graph.SetParallelism(m1, 3).ok());
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(m1, u, 0).ok());
  ASSERT_TRUE(graph.Connect(m2, u, 1).ok());
  EXPECT_EQ(graph.fan_in(u), 2);
  EXPECT_EQ(graph.physical_fan_in(u), 4);  // 3 subtasks + 1
}

TEST(ThreadedExecutorTest, PartitionSkewAccountsEveryTuple) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1000)));
  NodeId keyed = graph.AddOperatorAfter(
      src, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId mapped = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "identity"));
  ASSERT_TRUE(graph.Connect(keyed, mapped, 0, PartitionMode::kHash).ok());
  ASSERT_TRUE(graph.SetParallelism(mapped, 2).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(mapped, std::move(sink_op));

  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 1000);

  ASSERT_FALSE(result.partition_skew.empty());
  const PartitionSkew& skew = result.partition_skew.front();
  EXPECT_EQ(skew.parallelism, 2);
  ASSERT_EQ(skew.tuples_per_subtask.size(), 2u);
  int64_t total = 0;
  for (int64_t n : skew.tuples_per_subtask) total += n;
  EXPECT_EQ(total, 1000);  // hash routing loses nothing
  EXPECT_GE(skew.imbalance(), 1.0);
  EXPECT_EQ(skew.max_tuples,
            std::max(skew.tuples_per_subtask[0], skew.tuples_per_subtask[1]));
}

}  // namespace
}  // namespace cep2asp
