// Micro-benchmarks of the engine operators on google-benchmark: the raw
// costs the cluster simulator's CostProfile abstracts (per-tuple filter
// work, per-pair join work, per-run NFA work). Useful for regression
// tracking and for sanity-checking calibration constants.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "asp/compiled_stateless.h"
#include "asp/sliding_window_join.h"
#include "asp/interval_join.h"
#include "asp/stateless.h"
#include "event/expr_program.h"
#include "cep/cep_operator.h"
#include "runtime/bounded_queue.h"
#include "runtime/executor.h"
#include "runtime/spsc_ring.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "sea/pattern.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {
namespace {

std::vector<SimpleEvent> MakeEvents(EventTypeId type, int count,
                                    Timestamp step) {
  std::vector<SimpleEvent> events;
  events.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    SimpleEvent e;
    e.type = type;
    e.id = 1;
    e.ts = static_cast<Timestamp>(i) * step;
    e.value = static_cast<double>(i % 100);
    events.push_back(e);
  }
  return events;
}

EventTypeId TypeA() {
  static EventTypeId type = EventTypeRegistry::Global()->RegisterOrGet("uA");
  return type;
}
EventTypeId TypeB() {
  static EventTypeId type = EventTypeRegistry::Global()->RegisterOrGet("uB");
  return type;
}

void BM_FilterThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(TypeA(), n, 10)));
    NodeId filter = graph.AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value < 50; }));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(filter, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterThroughput)->Arg(100000);

void BM_SlidingWindowJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId l = graph.AddSource(
        std::make_unique<VectorSource>("l", MakeEvents(TypeA(), n, 100)));
    NodeId r = graph.AddSource(
        std::make_unique<VectorSource>("r", MakeEvents(TypeB(), n, 100)));
    Predicate seq;
    seq.Add(Comparison::AttrAttr({0, Attribute::kTs}, CmpOp::kLt,
                                 {1, Attribute::kTs}));
    NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
        SlidingWindowSpec{10000, 1000}, seq, TimestampMode::kMax));
    CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
    CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(join, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_SlidingWindowJoin)->Arg(20000);

void BM_IntervalJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId l = graph.AddSource(
        std::make_unique<VectorSource>("l", MakeEvents(TypeA(), n, 100)));
    NodeId r = graph.AddSource(
        std::make_unique<VectorSource>("r", MakeEvents(TypeB(), n, 100)));
    NodeId join = graph.AddOperator(std::make_unique<IntervalJoinOperator>(
        IntervalBounds::ForSequence(10000), Predicate(), TimestampMode::kMax));
    CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
    CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(join, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_IntervalJoin)->Arg(20000);

void BM_CepOperatorLowSelectivity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Pattern pattern = PatternBuilder()
                        .Seq(PatternBuilder::Atom(TypeA(), "e1"),
                             PatternBuilder::Atom(TypeB(), "e2"))
                        .Within(10000)
                        .SlideBy(1000)
                        .Build()
                        .ValueOrDie();
  // Interleave A and B sparsely: few runs alive at a time.
  std::vector<SimpleEvent> events;
  for (int i = 0; i < n; ++i) {
    SimpleEvent e;
    e.type = (i % 64 == 0) ? TypeA() : TypeB();
    e.id = 1;
    e.ts = static_cast<Timestamp>(i) * 500;
    events.push_back(e);
  }
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId cep = graph.AddOperatorAfter(
        src, CepOperator::FromPattern(pattern).ValueOrDie());
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(cep, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CepOperatorLowSelectivity)->Arg(100000);

void BM_CepOperatorRunHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Pattern pattern = PatternBuilder()
                        .Seq(PatternBuilder::Atom(TypeA(), "e1"),
                             PatternBuilder::Atom(TypeB(), "e2"))
                        .Within(60 * kMillisPerMinute)
                        .Build()
                        .ValueOrDie();
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);  // runs pile up
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId cep = graph.AddOperatorAfter(
        src, CepOperator::FromPattern(pattern).ValueOrDie());
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(cep, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CepOperatorRunHeavy)->Arg(3000);

// --- Exchange / channel layer ----------------------------------------------
//
// The raw cost of moving elements between two threads through the two
// exchange containers, per-item vs. batched: the mutex queue that fan-in > 1
// edges use and the lock-free SPSC ring of every other edge. Both sides use
// the non-blocking calls the executor makes and yield where a task would
// park, so this is the synchronization cost an inter-operator edge pays per
// tuple.

template <typename Queue>
int64_t TransferThrough(Queue* queue, int64_t n, size_t batch) {
  int64_t consumed_sum = 0;
  std::thread consumer([queue, &consumed_sum] {
    std::vector<int64_t> popped;
    bool eos = false;
    while (!eos) {
      if (queue->TryPopN(&popped, 64, &eos) == 0) {
        std::this_thread::yield();
        continue;
      }
      for (int64_t v : popped) consumed_sum += v;
    }
  });
  std::vector<int64_t> out;
  out.reserve(batch);
  auto flush = [queue, &out] {
    size_t done = 0;
    bool closed = false;
    while (done < out.size()) {
      const size_t moved =
          queue->TryPushN(out.data() + done, out.size() - done, &closed);
      if (moved == 0) std::this_thread::yield();
      done += moved;
    }
    out.clear();
  };
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(i);
    if (out.size() >= batch) flush();
  }
  flush();
  queue->Close();
  consumer.join();
  return consumed_sum;
}

void BM_RawChannelTransfer(benchmark::State& state) {
  const bool spsc = state.range(0) != 0;
  const size_t batch = static_cast<size_t>(state.range(1));
  const int64_t n = 1 << 19;
  for (auto _ : state) {
    int64_t consumed_sum = 0;
    if (spsc) {
      SpscRing<int64_t> ring(4096);
      consumed_sum = TransferThrough(&ring, n, batch);
    } else {
      BoundedQueue<int64_t> queue(4096);
      consumed_sum = TransferThrough(&queue, n, batch);
    }
    benchmark::DoNotOptimize(consumed_sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(std::string(spsc ? "spsc" : "mutex") + " batch=" +
                 std::to_string(batch));
}
BENCHMARK(BM_RawChannelTransfer)
    ->Args({0, 1})
    ->Args({0, 64})
    ->Args({1, 1})
    ->Args({1, 64})
    ->UseRealTime();

// End-to-end exchange cost through the threaded executor: a pass-through
// pipeline (source -> 2 filters -> sink) where per-tuple operator work is
// trivial, so throughput is dominated by the channel layer. The arg is
// batch_size: 1 is per-tuple exchange, 64 the micro-batched default. Every
// edge has fan-in 1, so every channel is an SPSC ring.
void BM_ThreadedExchange(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const int n = 100000;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId f1 = graph.AddOperatorAfter(
        src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
    NodeId f2 = graph.AddOperatorAfter(
        f1, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(f2, std::move(sink_op));
    // This benchmark measures the exchange layer; with chaining on the
    // filters fuse and there would be no exchange left to measure.
    UnchainAll(&graph);
    ThreadedExecutorOptions options;
    options.batch_size = batch;
    ThreadedExecutor executor(&graph, options);
    ExecutionResult result = executor.Run(sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_ThreadedExchange)->Arg(1)->Arg(8)->Arg(64)->UseRealTime();

// --- Operator chaining -------------------------------------------------------
//
// The chain A/B: a forward pipeline (source -> filter -> map -> filter ->
// sink) where every operator edge is chainable. Chain on fuses the four
// operators into one subtask (tuples handed between Process calls, no
// exchange); chain off opts every operator out (UnchainAll), one task per
// node with a real channel on every edge.

struct ChainPipeline {
  JobGraph graph;
  CollectSink* sink = nullptr;
};

ChainPipeline MakeForwardChainPipeline(const std::vector<SimpleEvent>& events) {
  ChainPipeline p;
  NodeId src = p.graph.AddSource(std::make_unique<VectorSource>("s", events));
  NodeId f1 = p.graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>(
               [](const Tuple& t) { return t.event(0).value < 90; }));
  NodeId m = p.graph.AddOperatorAfter(
      f1, std::make_unique<MapOperator>([](Tuple t) { return t; }));
  NodeId f2 = p.graph.AddOperatorAfter(
      m, std::make_unique<FilterOperator>(
             [](const Tuple& t) { return t.event(0).value < 80; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  p.sink = sink_op.get();
  p.graph.AddOperatorAfter(f2, std::move(sink_op));
  return p;
}

void BM_ForwardChainPipeline(benchmark::State& state) {
  const bool chained = state.range(0) != 0;
  const int n = 100000;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);
  for (auto _ : state) {
    ChainPipeline p = MakeForwardChainPipeline(events);
    if (!chained) UnchainAll(&p.graph);
    ThreadedExecutor executor(&p.graph);
    ExecutionResult result = executor.Run(p.sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(chained ? "chained" : "unchained");
}
BENCHMARK(BM_ForwardChainPipeline)->Arg(0)->Arg(1)->UseRealTime();

// --- Paired A/B helpers --------------------------------------------------------

struct AbSide {
  std::vector<double> tps;  // one throughput sample per repetition
  int64_t matches = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Speedup estimator for drifting hardware: each repetition runs both
/// sides back to back, so the ratio of that pair compares two runs
/// adjacent in time and machine-speed drift over minutes divides
/// out; the median then rejects occasional outlier repetitions. (A ratio
/// of per-side maxima, by contrast, may compare runs minutes apart.)
double MedianPairedRatio(const AbSide& a, const AbSide& b) {
  std::vector<double> ratios;
  const size_t n = std::min(a.tps.size(), b.tps.size());
  for (size_t i = 0; i < n; ++i) {
    if (b.tps[i] > 0) ratios.push_back(a.tps[i] / b.tps[i]);
  }
  return Median(std::move(ratios));
}

// --- Chain A/B with machine-readable output ----------------------------------

/// Physical shape of one side of the chain A/B.
struct ChainAbLayout {
  int tasks = 0;
  int fused_edges = 0;
  int channels = 0;
};

/// Runs the forward pipeline once, chained or not, appending its
/// throughput to `side` and recording its layout.
void RunChainOnce(bool chained, const std::vector<SimpleEvent>& events,
                  AbSide* side, ChainAbLayout* layout) {
  ChainPipeline p = MakeForwardChainPipeline(events);
  if (!chained) UnchainAll(&p.graph);
  ThreadedExecutor executor(&p.graph);
  const auto start = std::chrono::steady_clock::now();
  ExecutionResult result = executor.Run(p.sink);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!result.ok) {
    std::fprintf(stderr, "chain A/B run failed: %s\n", result.error.c_str());
    std::exit(1);
  }
  *layout = ChainAbLayout{};
  layout->tasks = result.scheduler.num_tasks;
  for (const ChannelStats& stats : result.channel_stats) {
    ++(stats.fused ? layout->fused_edges : layout->channels);
  }
  side->matches = result.matches_emitted;
  side->tps.push_back(static_cast<double>(events.size()) / elapsed.count());
}

void AppendSideJson(std::string* out, const char* key, const AbSide& side,
                    const ChainAbLayout& layout) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"throughput_tps\": %.0f, \"tasks\": %d, "
                "\"fused_edges\": %d, \"channels\": %d}",
                key, Median(side.tps), layout.tasks, layout.fused_edges,
                layout.channels);
  *out += buf;
}

/// Runs the forward-chain A/B and writes bench_results/BENCH_chain.json:
/// paired, order-alternating repetitions after one untimed warm-up pair,
/// per-side median throughput and the median paired ratio. `quick`
/// shrinks the input and repetition count for CI smoke runs. Ungated: it
/// exits 0 whatever the ratio.
int RunChainAb(bool quick) {
  const int n = quick ? 200000 : 1000000;
  const int repetitions = quick ? 5 : 9;
  const std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);
  AbSide on, off;
  ChainAbLayout on_layout, off_layout;
  {
    AbSide warmup;
    RunChainOnce(/*chained=*/true, events, &warmup, &on_layout);
    RunChainOnce(/*chained=*/false, events, &warmup, &off_layout);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool on_first = (rep % 2) == 0;
    RunChainOnce(on_first, events, on_first ? &on : &off,
                 on_first ? &on_layout : &off_layout);
    RunChainOnce(!on_first, events, on_first ? &off : &on,
                 on_first ? &off_layout : &on_layout);
  }
  if (on.matches != off.matches) {
    std::fprintf(stderr, "chain A/B: match counts diverged (%lld vs %lld)\n",
                 static_cast<long long>(on.matches),
                 static_cast<long long>(off.matches));
    return 1;
  }

  std::string json = "{\n";
  json += "  \"benchmark\": \"forward_chain_ab\",\n";
  json += "  \"pipeline\": \"source -> filter -> map -> filter -> sink\",\n";
  json += "  \"tuples_per_run\": " + std::to_string(n) + ",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  AppendSideJson(&json, "chain_on", on, on_layout);
  json += ",\n";
  AppendSideJson(&json, "chain_off", off, off_layout);
  json += ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  \"speedup\": %.2f\n",
                MedianPairedRatio(on, off));
  json += buf;
  json += "}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/BENCH_chain.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path);
  return 0;
}

// --- Expression A/B with machine-readable output -----------------------------
//
// Compiled + batched vs interpreted per-tuple on a stateless filter→key
// prefix, the exact pair of plans the translator chooses between with
// compile_expressions on/off. The benchmark drives the operator stage
// directly — the same MessageBatches the executor would hand it — so the
// measured work is exactly what compilation changes: expression
// evaluation plus the per-tuple operator plumbing. (End-to-end numbers
// with source + channel on both sides are what fig3a and bench_pipeline
// report; there the identical transport cost dilutes the stage-level
// ratio.) One side is a single CompiledStatelessOperator running a fused
// ExprProgram over whole batches; the other is the historical interpreted
// FilterOperator + MapOperator pair taking per-tuple virtual hops through
// a chaining collector, which is how the executor runs them. The
// predicate's three terms (one with an rhs offset) all evaluate for every
// tuple; only ~10% survive, so almost every tuple pays full predicate
// cost and the survivors pay the key assignment.

Predicate ExprAbPredicate() {
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kLat}, CmpOp::kGe, -100.0));
  pred.Add(Comparison::AttrAttr({0, Attribute::kLon}, CmpOp::kLe,
                                {0, Attribute::kValue}, 1e6));
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 10.0));
  return pred;
}

/// Terminal collector: counts survivors and checksums their keys, so the
/// key stores cannot be optimized away and both sides can be compared for
/// identical observable output.
class ExprAbSink final : public Collector {
 public:
  void Emit(Tuple tuple) override {
    ++count_;
    key_sum_ += static_cast<uint64_t>(tuple.key());
  }
  void EmitBatch(MessageBatch* batch) override {
    for (Message& msg : *batch) {
      ++count_;
      key_sum_ += static_cast<uint64_t>(msg.tuple.key());
    }
    batch->clear();
  }
  int64_t count() const { return count_; }
  uint64_t key_sum() const { return key_sum_; }

 private:
  int64_t count_ = 0;
  uint64_t key_sum_ = 0;
};

/// The executor's chained hand-off for the interpreted pair: each tuple
/// the filter passes takes one virtual Process call into the key map.
class ExprAbChainTo final : public Collector {
 public:
  ExprAbChainTo(Operator* next, Collector* out) : next_(next), out_(out) {}
  void Emit(Tuple tuple) override {
    CEP2ASP_CHECK(next_->Process(0, std::move(tuple), out_).ok());
  }

 private:
  Operator* next_;
  Collector* out_;
};

std::vector<MessageBatch> MakeExprBatches(
    const std::vector<SimpleEvent>& events, size_t batch_size) {
  std::vector<MessageBatch> batches;
  batches.reserve(events.size() / batch_size + 1);
  for (size_t i = 0; i < events.size(); i += batch_size) {
    MessageBatch batch;
    const size_t end = std::min(events.size(), i + batch_size);
    batch.reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      batch.push_back(Message::Data(0, Tuple(events[j])));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void RunExprOnce(bool compiled, const std::vector<SimpleEvent>& events,
                 AbSide* side) {
  // Batches are processed in cache-resident waves: the executor hands a
  // stage batches a channel hop after the producer wrote them, so the
  // stage never streams tens of megabytes cold from DRAM. Each wave's
  // batch set is built outside the timed region (the executor pays
  // source + channel cost on both sides identically, the stage does
  // not), then processed timed.
  constexpr size_t kWave = 4096;
  ExprAbSink sink;
  double elapsed = 0.0;

  ExprProgram fused = ExprProgram::Fuse(
      ExprProgram::Filter(ExprAbPredicate(), ExprProgram::VarMode::kBroadcast),
      ExprProgram::KeyByAttribute(0, Attribute::kId));
  CEP2ASP_CHECK(fused.ok());
  CompiledStatelessOperator compiled_op(std::move(fused), "filter+key");
  std::unique_ptr<Operator> filter =
      FilterOperator::FromPredicate(ExprAbPredicate());
  std::unique_ptr<Operator> keymap =
      MapOperator::KeyByAttribute(0, Attribute::kId);
  ExprAbChainTo chain(keymap.get(), &sink);

  for (size_t wave = 0; wave < events.size(); wave += kWave) {
    const std::vector<SimpleEvent> slice(
        events.begin() + wave,
        events.begin() + std::min(events.size(), wave + kWave));
    std::vector<MessageBatch> batches = MakeExprBatches(slice, 64);
    const auto start = std::chrono::steady_clock::now();
    if (compiled) {
      for (MessageBatch& batch : batches) {
        CEP2ASP_CHECK(compiled_op.ProcessBatch(0, &batch, &sink).ok());
      }
    } else {
      for (MessageBatch& batch : batches) {
        // The default Operator::ProcessBatch — per-tuple Process calls —
        // exactly what the executor runs for non-compiled operators.
        CEP2ASP_CHECK(filter->ProcessBatch(0, &batch, &chain).ok());
      }
    }
    elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  }
  // Fold the key checksum into the match count so any divergence between
  // the two sides' observable output fails the run, not just the count.
  side->matches =
      sink.count() + static_cast<int64_t>(sink.key_sum() % 1000003);
  side->tps.push_back(static_cast<double>(events.size()) / elapsed);
}

/// Runs the compiled vs interpreted A/B on the filter→key prefix and
/// writes bench_results/BENCH_expr.json. Paired, order-alternating
/// repetitions with one untimed warm-up.
/// Exit status gates CI: compiled + batched must reach 1.4x interpreted.
int RunExprAb(bool quick) {
  const int n = quick ? 300000 : 2000000;
  const int repetitions = quick ? 5 : 9;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);

  AbSide compiled, interpreted;
  {
    AbSide warmup;
    RunExprOnce(/*compiled=*/true, events, &warmup);
    RunExprOnce(/*compiled=*/false, events, &warmup);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool compiled_first = (rep % 2) == 0;
    RunExprOnce(compiled_first, events,
                compiled_first ? &compiled : &interpreted);
    RunExprOnce(!compiled_first, events,
                compiled_first ? &interpreted : &compiled);
  }

  if (compiled.matches != interpreted.matches) {
    std::fprintf(stderr,
                 "expr A/B: match counts diverged (compiled %lld vs "
                 "interpreted %lld)\n",
                 static_cast<long long>(compiled.matches),
                 static_cast<long long>(interpreted.matches));
    return 1;
  }

  const double speedup = MedianPairedRatio(compiled, interpreted);
  constexpr double kGate = 1.4;
  const bool gate_passed = speedup >= kGate;

  char buf[256];
  std::string json = "{\n";
  json += "  \"benchmark\": \"expr_ab\",\n";
  json +=
      "  \"pipeline\": \"filter(3 terms)+key:=attr stage, 64-tuple "
      "batches\",\n";
  json += "  \"tuples_per_run\": " + std::to_string(n) + ",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  json += "  \"survivors\": " + std::to_string(compiled.matches) + ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"compiled_tps\": %.0f,\n  \"interpreted_tps\": %.0f,\n",
                Median(compiled.tps), Median(interpreted.tps));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"speedup\": %.2f,\n  \"gate_min_speedup\": %.2f,\n"
                "  \"gate_passed\": %s\n",
                speedup, kGate, gate_passed ? "true" : "false");
  json += buf;
  json += "}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/BENCH_expr.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path);
  if (!gate_passed) {
    std::fprintf(stderr,
                 "expr A/B gate FAILED: compiled %.2fx interpreted "
                 "(floor %.2f)\n",
                 speedup, kGate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cep2asp

// Custom main: `--quick` / `--chain-ab` run the chain A/B and emit
// BENCH_chain.json; `--expr-ab` / `--expr-ab-quick` run the compiled vs
// interpreted expression A/B and emit BENCH_expr.json; anything else goes
// to google-benchmark as usual.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") return cep2asp::RunChainAb(/*quick=*/true);
    if (arg == "--chain-ab") return cep2asp::RunChainAb(/*quick=*/false);
    if (arg == "--expr-ab") return cep2asp::RunExprAb(/*quick=*/false);
    if (arg == "--expr-ab-quick") return cep2asp::RunExprAb(/*quick=*/true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
