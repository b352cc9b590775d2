// End-to-end benchmark of translated CEP plans on the production runtime.
//
// Runs one workload of translated SEA patterns on the default
// ThreadedExecutor (task scheduler, chaining and columnar path, no knobs
// set; only the worker pool size is chosen per workload), checks every
// run's match count against the PipelineExecutor reference on the same
// inputs, and prints the metrics of the run as the last line of stdout (one
// JSON object). With --trace 1 it alternates untraced runs with runs whose
// graph nodes are wrapped by the forwarding tracers of trace.h, and prints
// the per-layer split instead.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>]
//
// See README.md in this directory for the workloads and every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/graph_rules.h"
#include "harness/paper_patterns.h"
#include "replay_source.h"
#include "runtime/executor.h"
#include "runtime/threaded_executor.h"
#include "sea/semantics.h"
#include "trace.h"
#include "translator/translator.h"
#include "workload/generator.h"
#include "workload/presets.h"

namespace cep2asp::e2ebench {
namespace {

constexpr Timestamp kMin = kMillisPerMinute;
constexpr int64_t kSetupBlockNanos = 20'000'000;

/// Latency clock. The threaded runtime reads Clock::NowMillis only to
/// stamp create_ts at the source task and in the sink's latency
/// subtraction, so a clock whose "millis" are microseconds turns the sink's
/// latency samples into microseconds without touching the runtime.
/// NowNanos stays in nanoseconds: pacing deadlines and elapsed time use it.
/// The ms-unit source_flush_timeout_millis is read only by the legacy
/// thread-per-subtask path, which every run asserts it never selected
/// (SchedulerStats::used).
class MicrosClock : public Clock {
 public:
  Timestamp NowMillis() const override { return SteadyNanos() / 1000; }
  int64_t NowNanos() const override { return SteadyNanos(); }
};

// --- workloads ---------------------------------------------------------------

struct WorkloadDef {
  std::string name;
  bool keyed_seq3 = false;  // fig6 keyed SEQ(A,B,C); else fig3a SEQ1(2)
  int parallelism = 1;
  int keys = 0;
  int rounds = 0;           // events per key and stream, measured runs
  int oracle_keys = 0;      // small size for the SEA oracle check
  int oracle_rounds = 0;
  double offered_per_source = 0;  // tuples/s per source; 0 = closed loop
  // Task-scheduler pool size; 0 = the default (one per hardware thread).
  // The closed-loop workloads keep to half of a 4-vCPU host: a full-speed
  // run on every core measures the neighbours of a shared host as much as
  // the engine. The open loop keeps the default pool, since a paced
  // source's Next() sleeps on its worker until the tuple is due.
  int workers = 0;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {.name = "seq3_keyed_p4", .keyed_seq3 = true, .parallelism = 4,
       .keys = 128, .rounds = 1000, .oracle_keys = 8, .oracle_rounds = 80,
       .workers = 2},
      {.name = "seq1_filter", .keys = 64, .rounds = 32000,
       .oracle_keys = 64, .oracle_rounds = 600, .workers = 2},
      {.name = "seq3_keyed_paced", .keyed_seq3 = true, .parallelism = 4,
       .keys = 128, .rounds = 1000, .oracle_keys = 8, .oracle_rounds = 80,
       .offered_per_source = 100000},
  };
  return defs;
}

EventTypeId Fig6Type(int i) {
  static const char* kNames[3] = {"Fig6A", "Fig6B", "Fig6C"};
  return EventTypeRegistry::Global()->RegisterOrGet(kNames[i]);
}

/// fig6: SEQ(A, B, C) with id equi-joins and `value < 45` on every atom.
Pattern KeyedSeq3() {
  Predicate filter;
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
  return PatternBuilder()
      .Seq(PatternBuilder::Atom(Fig6Type(0), "e1", filter),
           PatternBuilder::Atom(Fig6Type(1), "e2", filter),
           PatternBuilder::Atom(Fig6Type(2), "e3", filter))
      .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                  {1, Attribute::kId}))
      .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                  {2, Attribute::kId}))
      .Within(6 * kMin)
      .Build()
      .ValueOrDie();
}

Pattern PatternOf(const WorkloadDef& def) {
  if (def.keyed_seq3) return KeyedSeq3();
  // fig3a SEQ1(2): filter selectivity 0.002, W = 15 min, slide 1 min.
  return PaperPatterns().Seq1(0.002, 15 * kMin, kMin).ValueOrDie();
}

TranslatorOptions OptionsOf(const WorkloadDef& def) {
  TranslatorOptions options;
  if (def.keyed_seq3) {
    options.use_equi_join_keys = true;
    options.parallelism = def.parallelism;
  }
  return options;
}

/// Generates the streams of `def` from `seed`: uniform values in [0, 100),
/// one reading per key per minute on aligned ticks (the fig3a/fig6 shapes).
LoadStreams Generate(const WorkloadDef& def, uint64_t seed, int keys,
                     int rounds) {
  std::vector<EventTypeId> types;
  if (def.keyed_seq3) {
    types = {Fig6Type(0), Fig6Type(1), Fig6Type(2)};
  } else {
    SensorTypes sensors = SensorTypes::Get();
    types = {sensors.q, sensors.v};
  }
  LoadStreams load;
  load.tuples_per_second = def.offered_per_source;
  for (size_t i = 0; i < types.size(); ++i) {
    StreamSpec spec;
    spec.type = types[i];
    spec.num_sensors = keys;
    spec.events_per_sensor = rounds;
    spec.period = kMin;
    spec.align_to_period = true;
    spec.seed = seed * 1000003 + 17 * (i + 1);
    load.streams[spec.type] = GenerateStream(spec);
  }
  return load;
}

// --- jobs and runs -----------------------------------------------------------

struct Job {
  CompiledQuery query;
  std::vector<std::unique_ptr<Lateness>> lateness;
  GraphTrace trace;  // empty unless tracing was installed
  double translate_s = 0;
};

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

/// Translates the workload's pattern over `load`. `paced` selects the
/// open-loop sources (the reference and oracle runs always replay at full
/// speed).
std::unique_ptr<Job> Translate(const WorkloadDef& def, const Pattern& pattern,
                               const LoadStreams& load, Clock* clock,
                               bool paced, bool store_matches) {
  auto job = std::make_unique<Job>();
  const int64_t start = SteadyNanos();
  auto compiled = TranslatePattern(
      pattern, OptionsOf(def), load.Factory(clock, &job->lateness, paced),
      store_matches, clock);
  job->translate_s = Seconds(SteadyNanos() - start);
  if (!compiled.ok()) {
    std::fprintf(stderr, "translation failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(2);
  }
  job->query = std::move(*compiled);
  return job;
}

ThreadedExecutorOptions ProductionOptions(const WorkloadDef& def,
                                          Clock* clock) {
  ThreadedExecutorOptions options;  // defaults = the production runtime
  options.clock = clock;
  options.worker_threads = def.workers;
  return options;
}

struct RunSample {
  bool ok = false;
  std::string error;
  bool legacy_path = false;
  int64_t rows = 0;
  int64_t matches = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<int64_t> latencies_us;
  std::vector<ChannelStats> channels;
  std::vector<PartitionSkew> skew;
  SchedulerStats scheduler;
  Lateness lateness;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs `job` on the production ThreadedExecutor.
RunSample RunThreaded(const WorkloadDef& def, Job* job, MicrosClock* clock) {
  ThreadedExecutor executor(&job->query.graph, ProductionOptions(def, clock));
  RunSample sample;
  const double cpu0 = CpuSeconds();
  const int64_t wall0 = SteadyNanos();
  ExecutionResult result = executor.Run(job->query.sink);
  sample.wall_s = Seconds(SteadyNanos() - wall0);
  sample.cpu_s = CpuSeconds() - cpu0;
  sample.ok = result.ok;
  sample.error = result.error;
  sample.legacy_path = !result.scheduler.used;
  sample.rows = result.tuples_ingested;
  sample.matches = result.matches_emitted;
  sample.latencies_us = job->query.sink->latencies();
  sample.channels = std::move(result.channel_stats);
  sample.skew = std::move(result.partition_skew);
  sample.scheduler = std::move(result.scheduler);
  for (const auto& late : job->lateness) {
    sample.lateness.late_calls += late->late_calls;
    sample.lateness.total_ns += late->total_ns;
    sample.lateness.max_ns = std::max(sample.lateness.max_ns, late->max_ns);
  }
  return sample;
}

/// Mean lateness of the generator's late Next() calls, in microseconds.
double MeanLateUs(const Lateness& lateness) {
  return lateness.late_calls > 0
             ? static_cast<double>(lateness.total_ns) / 1e3 /
                   static_cast<double>(lateness.late_calls)
             : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::string> MatchSet(const std::vector<Tuple>& tuples) {
  std::vector<std::string> keys;
  keys.reserve(tuples.size());
  for (const Tuple& t : tuples) keys.push_back(MatchKey(t));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Exchange layout of a run: per physical channel, whether it is fused, the
/// column blocks it carried and the rows it scattered. Source staging is
/// deterministic on these workloads, so tracing must not change any of it.
using Layout =
    std::map<std::pair<std::string, int>, std::tuple<bool, int64_t, int64_t>>;

Layout LayoutOf(const std::vector<ChannelStats>& channels) {
  Layout layout;
  for (const ChannelStats& c : channels) {
    layout[{c.consumer, c.subtask}] = {c.fused, c.columnar_blocks,
                                       c.scattered_rows};
  }
  return layout;
}

// --- the benchmark -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

class Bench {
 public:
  Bench(const WorkloadDef& def, const Args& args)
      : def_(def), args_(args), pattern_(PatternOf(def)) {}

  int Main() {
    load_ = Generate(def_, args_.seed, def_.keys, def_.rounds);
    total_rows_ = load_.TotalEvents();
    PrintHost(CheckOracle());
    RunReference();
    return args_.trace ? Traced() : Untraced();
  }

 private:
  /// Builds a job over the measured streams and runs it on the production
  /// runtime; counts the attempt and checks the result.
  RunSample Attempt(bool traced, std::unique_ptr<Job>* keep = nullptr) {
    std::unique_ptr<Job> job =
        Translate(def_, pattern_, load_, &clock_, paced(), false);
    if (traced) job->trace = InstallTracing(&job->query.graph);
    RunSample sample = RunThreaded(def_, job.get(), &clock_);
    ++attempted_;
    std::string why;
    if (!sample.ok) {
      why = "run failed: " + sample.error;
    } else if (sample.legacy_path) {
      why = "legacy thread-per-subtask path selected";
    } else if (sample.rows != total_rows_) {
      why = "ingested " + std::to_string(sample.rows) + " of " +
            std::to_string(total_rows_) + " rows";
    } else if (sample.matches != reference_matches_) {
      why = "match count " + std::to_string(sample.matches) +
            " != PipelineExecutor reference " +
            std::to_string(reference_matches_);
    }
    if (!why.empty()) {
      ++failed_;
      std::printf("FAILED %s run: %s\n", traced ? "traced" : "untraced",
                  why.c_str());
    }
    if (keep != nullptr) *keep = std::move(job);
    return sample;
  }

  bool paced() const { return def_.offered_per_source > 0; }

  /// Host facts, recorded with every result. `workers` is the pool size
  /// the runtime actually used.
  void PrintHost(int workers) const {
#if CEP2ASP_SIMD
    const char* simd = "on";
#else
    const char* simd = "off";
#endif
    std::printf("host: nproc=%ld hardware_concurrency=%u workers=%d simd=%s "
                "commit=%s seed=%" PRIu64 "\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), workers, simd,
                args_.commit.c_str(), args_.seed);
    std::printf("workload: %s rows=%" PRId64 " keys=%d parallelism=%d %s\n",
                def_.name.c_str(), total_rows_, def_.keys, def_.parallelism,
                paced() ? "open loop" : "closed loop, full speed");
  }

  /// Sets the job up repeatedly for `nanos` (translation plus executor
  /// construction; the lint timed separately). Set-up takes microseconds
  /// and its speed drifts over seconds on a shared host, so blocks of it
  /// run before every measured run and setup_s is the median of them all.
  void SetUpBlock(int64_t nanos) {
    const int64_t until = SteadyNanos() + nanos;
    do {
      const int64_t start = SteadyNanos();
      std::unique_ptr<Job> job =
          Translate(def_, pattern_, load_, &clock_, paced(), false);
      ThreadedExecutor executor(&job->query.graph,
                                ProductionOptions(def_, &clock_));
      setup_s_.push_back(Seconds(SteadyNanos() - start));
      translate_ms_.push_back(job->translate_s * 1e3);
      const int64_t lint_start = SteadyNanos();
      DiagnosticReport report = AnalyzeJobGraph(job->query.graph);
      lint_ms_.push_back(Seconds(SteadyNanos() - lint_start) * 1e3);
    } while (SteadyNanos() < until);
  }

  /// Once per invocation, at a small size: the deduplicated matches of the
  /// production runtime must equal the SEA oracle's (EvaluateWithWindows).
  /// Returns the worker pool size the runtime ran with.
  int CheckOracle() {
    LoadStreams small =
        Generate(def_, args_.seed, def_.oracle_keys, def_.oracle_rounds);
    std::unique_ptr<Job> job =
        Translate(def_, pattern_, small, &clock_, false, true);
    RunSample sample = RunThreaded(def_, job.get(), &clock_);
    const std::vector<std::string> engine = MatchSet(job->query.sink->tuples());
    sea::WindowedEvaluation oracle =
        sea::EvaluateWithWindows(pattern_, small.Merged());
    const std::vector<std::string> expected = MatchSet(oracle.matches);
    ++attempted_;
    const bool agree = sample.ok && engine == expected;
    if (!agree) ++failed_;
    std::printf("oracle: %zu distinct matches, engine %zu (%" PRId64
                " emissions) -> %s\n",
                expected.size(), engine.size(), sample.matches,
                agree ? "agree" : "DISAGREE");
    return sample.scheduler.worker_threads;
  }

  /// PipelineExecutor on the same job and inputs: the reference match
  /// count every run is checked against, and the single-threaded baseline.
  void RunReference() {
    std::unique_ptr<Job> job =
        Translate(def_, pattern_, load_, &clock_, false, false);
    const int64_t start = SteadyNanos();
    ExecutionResult result = RunJob(&job->query.graph, job->query.sink);
    const double wall = Seconds(SteadyNanos() - start);
    if (!result.ok) {
      std::printf("FAILED reference run: %s\n", result.error.c_str());
      std::exit(3);
    }
    reference_matches_ = result.matches_emitted;
    pipeline_tps_ = static_cast<double>(result.tuples_ingested) / wall;
    std::printf("reference: PipelineExecutor %" PRId64 " matches, %.0f tpl/s\n",
                reference_matches_, pipeline_tps_);
  }

  int Untraced() {
    Attempt(false);  // warm-up, checked but not measured

    // Every statistic is taken per measured run and reported as the median
    // over runs, so a host stall during one run moves it little.
    std::vector<double> tps, cpu_us, p50_us, p99_us;
    int64_t samples = 0;
    Lateness lateness;
    // Read after the first measured run: later runs in the same process
    // only add allocator fragmentation, in steps that vary run to run.
    double peak_rss_mb = 0;
    const int64_t deadline =
        SteadyNanos() + static_cast<int64_t>(args_.seconds * 1e9);
    while (tps.size() < 3 || SteadyNanos() < deadline) {
      SetUpBlock(kSetupBlockNanos);
      RunSample s = Attempt(false);
      if (tps.empty()) peak_rss_mb = PeakRssMb();
      tps.push_back(static_cast<double>(s.rows) / s.wall_s);
      cpu_us.push_back(s.cpu_s * 1e6 / static_cast<double>(s.rows));
      LatencyStats latency =
          LatencyStats::FromSamples(std::move(s.latencies_us));
      p50_us.push_back(latency.p50_ms);
      p99_us.push_back(latency.p99_ms);
      samples += latency.count;
      lateness.late_calls += s.lateness.late_calls;
      lateness.total_ns += s.lateness.total_ns;
      lateness.max_ns = std::max(lateness.max_ns, s.lateness.max_ns);
    }

    std::printf("measured runs: %zu, latency (not gated, median over runs): "
                "p50 %.0f us, p99 %.0f us, %" PRId64 " samples per run\n",
                tps.size(), Median(p50_us), Median(p99_us),
                samples / static_cast<int64_t>(tps.size()));
    std::printf("generator late calls: %" PRId64
                " (mean %.1f us, max %.1f us)\n",
                lateness.late_calls, MeanLateUs(lateness),
                static_cast<double>(lateness.max_ns) / 1e3);
    std::printf("failed_share: %" PRId64 "/%" PRId64 "\n", failed_, attempted_);

    metrics_.push_back({"throughput_tps", Median(tps), "1/s"});
    metrics_.push_back({"cpu_us_per_tuple", Median(cpu_us), "us"});
    metrics_.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics_.push_back({"setup_s", Median(setup_s_), "s"});
    return Emit();
  }

  /// Offered input rate of the workload: the schedule for the open-loop
  /// workload; for closed-loop ones, the rate at which the generator alone
  /// replays the streams (it offers as fast as it can).
  double Offered() {
    if (paced()) {
      return def_.offered_per_source *
             static_cast<double>(load_.streams.size());
    }
    if (generator_tps_ == 0) {
      std::vector<double> rates;
      std::vector<std::unique_ptr<Lateness>> lateness;
      SourceFactory factory = load_.Factory(&clock_, &lateness, false);
      for (int rep = 0; rep < 21; ++rep) {
        int64_t rows = 0;
        const int64_t start = SteadyNanos();
        for (const auto& [type, events] : load_.streams) {
          (void)events;
          std::unique_ptr<Source> source = factory(type);
          Tuple tuple;
          while (source->Next(&tuple)) ++rows;
        }
        rates.push_back(static_cast<double>(rows) /
                        Seconds(SteadyNanos() - start));
      }
      generator_tps_ = Median(rates);
    }
    return generator_tps_;
  }

  int Traced() {
    struct Pair {
      RunSample plain;
      RunSample traced;
      std::unique_ptr<Job> job;  // the traced job, for its graph and trace
    };
    Attempt(false);  // warm-up

    std::vector<Pair> pairs;
    bool transparent = true;
    const int64_t deadline =
        SteadyNanos() + static_cast<int64_t>(args_.seconds * 1e9);
    while (pairs.size() < 2 || SteadyNanos() < deadline) {
      SetUpBlock(kSetupBlockNanos);
      Pair pair;
      const bool traced_first = pairs.size() % 2 == 1;
      if (traced_first) pair.traced = Attempt(true, &pair.job);
      pair.plain = Attempt(false);
      if (!traced_first) pair.traced = Attempt(true, &pair.job);
      if (LayoutOf(pair.plain.channels) != LayoutOf(pair.traced.channels) ||
          pair.plain.matches != pair.traced.matches) {
        transparent = false;
      }
      pairs.push_back(std::move(pair));
    }
    if (!transparent) {
      ++failed_;
      std::printf("FAILED transparency: tracing changed the match count or "
                  "the exchange layout\n");
    }
    std::printf("traced pairs: %zu, transparency %s, failed_share: %" PRId64
                "/%" PRId64 "\n",
                pairs.size(), transparent ? "ok" : "VIOLATED", failed_,
                attempted_);

    std::vector<std::vector<Metric>> per_run;
    std::vector<double> plain_tps, traced_tps, plain_cpu, traced_cpu;
    std::vector<double> plain_p50_us, plain_p99_us;
    Lateness lateness;
    for (Pair& pair : pairs) {
      LatencyStats latency =
          LatencyStats::FromSamples(std::move(pair.plain.latencies_us));
      plain_p50_us.push_back(latency.p50_ms);
      plain_p99_us.push_back(latency.p99_ms);
      lateness.late_calls += pair.plain.lateness.late_calls;
      lateness.total_ns += pair.plain.lateness.total_ns;
      per_run.push_back(LayerSplit(pair.traced, *pair.job));
      plain_tps.push_back(static_cast<double>(pair.plain.rows) /
                          pair.plain.wall_s);
      traced_tps.push_back(static_cast<double>(pair.traced.rows) /
                           pair.traced.wall_s);
      plain_cpu.push_back(pair.plain.cpu_s);
      traced_cpu.push_back(pair.traced.cpu_s);
    }
    const double untraced_tps = Median(plain_tps);
    metrics_.push_back(
        {"translator.translate_ms", Median(translate_ms_), "ms"});
    metrics_.push_back({"analysis.lint_ms", Median(lint_ms_), "ms"});
    for (size_t i = 0; i < per_run.front().size(); ++i) {
      std::vector<double> values;
      for (const auto& run : per_run) values.push_back(run[i].value);
      metrics_.push_back({per_run.front()[i].name, Median(values),
                          per_run.front()[i].unit});
    }
    metrics_.push_back(
        {"load.sustained_rate_ratio", untraced_tps / Offered(), "ratio"});
    metrics_.push_back({"load.lateness_mean_us", MeanLateUs(lateness), "us"});
    metrics_.push_back(
        {"runtime.sink.latency_p50_us", Median(plain_p50_us), "us"});
    metrics_.push_back(
        {"runtime.sink.latency_p99_us", Median(plain_p99_us), "us"});
    metrics_.push_back({"baseline.pipeline_tps", pipeline_tps_, "1/s"});
    metrics_.push_back(
        {"baseline.parallel_speedup", untraced_tps / pipeline_tps_, "ratio"});
    // Closed loop: untraced / traced throughput. Open loop, where the
    // schedule fixes throughput: traced / untraced CPU time.
    metrics_.push_back(
        {"tracing.overhead",
         paced() ? Median(traced_cpu) / Median(plain_cpu)
                 : untraced_tps / Median(traced_tps),
         "ratio"});
    for (const auto& m : metrics_) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    return Emit();
  }

  /// The per-layer split of one traced run. Layers are the modules the
  /// nodes come from, told apart by their (forwarded) traits.
  static std::vector<Metric> LayerSplit(const RunSample& run,
                                        const Job& job) {
    const JobGraph& graph = job.query.graph;
    const GraphTrace& trace = job.trace;
    const ChainLayout chains = ComputeChainLayout(graph);

    struct Sum {
      int64_t rows_in = 0, rows_out = 0, ingest_self = 0, ingest_total = 0,
              fire_self = 0, emit_self = 0, emit_rows = 0;
      int64_t max_busy = 0;
    };
    Sum source, prefix, join, sink, exchange_emit;
    int64_t traced_self = 0;
    for (NodeId id = 0; id < graph.num_nodes(); ++id) {
      const JobGraph::Node& node = graph.node(id);
      Sum* layer = nullptr;
      if (node.is_source()) {
        layer = &source;
      } else if (node.op->Traits().is_sink) {
        layer = &sink;
      } else if (node.op->num_inputs() == 2) {
        layer = &join;
      } else if (!node.op->Traits().stateful) {
        layer = &prefix;
      }
      bool crosses_exchange = !node.is_source() && !node.outputs.empty();
      for (size_t e = 0; e < node.outputs.size(); ++e) {
        if (chains.fused(id, e)) crosses_exchange = false;
      }
      for (const auto& inst : trace[static_cast<size_t>(id)]->instances) {
        traced_self +=
            inst->ingest.self_ns + inst->fire.self_ns + inst->emit.self_ns;
        if (crosses_exchange) {
          exchange_emit.emit_self += inst->emit.self_ns;
          exchange_emit.emit_rows += inst->rows_out;
        }
        if (layer == nullptr) continue;
        layer->rows_in += inst->rows_in;
        layer->rows_out += inst->rows_out;
        layer->ingest_self += inst->ingest.self_ns;
        layer->ingest_total += inst->ingest.total_ns;
        layer->fire_self += inst->fire.self_ns;
        layer->max_busy = std::max(layer->max_busy,
                                   inst->ingest.self_ns + inst->fire.self_ns);
      }
    }
    auto per = [](int64_t nanos, int64_t rows) {
      return rows > 0 ? static_cast<double>(nanos) / static_cast<double>(rows)
                      : 0.0;
    };
    const double wall_ns = run.wall_s * 1e9;

    ChannelStats exchange;
    for (const ChannelStats& c : run.channels) {
      if (c.fused) continue;
      exchange.tuples += c.tuples;
      exchange.columnar_blocks += c.columnar_blocks;
      exchange.messages += c.messages;
      exchange.batches += c.batches;
      exchange.blocked_push_nanos += c.blocked_push_nanos;
      exchange.scattered_rows += c.scattered_rows;
    }
    // Without a partitioned operator every load is trivially balanced.
    double imbalance = 1.0;
    for (const PartitionSkew& s : run.skew) {
      imbalance = std::max(imbalance, s.imbalance());
    }
    const SchedulerStats& sched = run.scheduler;

    auto n = [](int64_t count) { return static_cast<double>(count); };
    return {
        {"runtime.source.rows", n(source.rows_out), "count"},
        {"runtime.source.next_ns_per_row",
         per(source.ingest_total, source.rows_out), "ns"},
        {"asp.prefix.rows_in", n(prefix.rows_in), "count"},
        {"asp.prefix.rows_out", n(prefix.rows_out), "count"},
        {"asp.prefix.self_ns_per_row",
         per(prefix.ingest_self + prefix.fire_self, prefix.rows_in), "ns"},
        {"runtime.exchange.rows", n(exchange.tuples), "count"},
        {"runtime.exchange.blocks", n(exchange.columnar_blocks), "count"},
        {"runtime.exchange.avg_fill", exchange.avg_fill(), "msgs"},
        {"runtime.exchange.blocked_push_ms",
         n(exchange.blocked_push_nanos) / 1e6, "ms"},
        {"runtime.exchange.scattered_rows", n(exchange.scattered_rows),
         "count"},
        {"runtime.exchange.emit_self_ns_per_row",
         per(exchange_emit.emit_self, exchange_emit.emit_rows), "ns"},
        {"runtime.exchange.partition_imbalance", imbalance, "ratio"},
        {"asp.join.rows_in", n(join.rows_in), "count"},
        {"asp.join.ingest_self_ms", n(join.ingest_self) / 1e6, "ms"},
        {"asp.join.fire_self_ms", n(join.fire_self) / 1e6, "ms"},
        {"asp.join.rows_out", n(join.rows_out), "count"},
        {"asp.join.fire_ns_per_row_out", per(join.fire_self, join.rows_out),
         "ns"},
        {"asp.join.max_subtask_busy_share", n(join.max_busy) / wall_ns,
         "ratio"},
        {"runtime.sink.rows", n(sink.rows_in), "count"},
        {"runtime.sink.self_ns_per_row",
         per(sink.ingest_self + sink.fire_self, sink.rows_in), "ns"},
        {"runtime.scheduler.tasks_run", n(sched.total_tasks_run()), "count"},
        {"runtime.scheduler.steals", n(sched.total_steals()), "count"},
        {"runtime.scheduler.parks", n(sched.total_parks()), "count"},
        {"runtime.scheduler.timer_parks", n(sched.timer_parks), "count"},
        {"runtime.scheduler.quantum_utilization", sched.quantum_utilization(),
         "ratio"},
        {"runtime.scheduler.worker_busy_share",
         n(traced_self) / (std::max(1, sched.worker_threads) * wall_ns),
         "ratio"},
    };
  }

  int Emit() const {
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  const WorkloadDef& def_;
  const Args& args_;
  const Pattern pattern_;
  MicrosClock clock_;
  LoadStreams load_;
  int64_t total_rows_ = 0;
  std::vector<double> setup_s_, translate_ms_, lint_ms_;
  int64_t reference_matches_ = -1;
  double pipeline_tps_ = 0;
  double generator_tps_ = 0;  // closed-loop offered rate, see Offered()
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <sha>]\n");
    return 64;
  }
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == args.workload) return Bench(def, args).Main();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 64;
}

}  // namespace
}  // namespace cep2asp::e2ebench

int main(int argc, char** argv) { return cep2asp::e2ebench::Main(argc, argv); }
