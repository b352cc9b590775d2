#include "runtime/metrics.h"

#include <algorithm>
#include <cstdio>

namespace cep2asp {

LatencyStats LatencyStats::FromSamples(std::vector<int64_t> samples) {
  LatencyStats stats;
  stats.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (int64_t s : samples) sum += static_cast<double>(s);
  stats.mean_ms = sum / static_cast<double>(samples.size());
  auto percentile = [&samples](double p) {
    size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
    return static_cast<double>(samples[idx]);
  };
  stats.p50_ms = percentile(0.50);
  stats.p95_ms = percentile(0.95);
  stats.p99_ms = percentile(0.99);
  stats.max_ms = static_cast<double>(samples.back());
  return stats;
}

int ChannelStats::FillBucket(size_t fill) {
  int bucket = 0;
  size_t bound = 1;
  while (bucket < kFillBuckets - 1 && fill > bound) {
    ++bucket;
    bound <<= 1;
  }
  return bucket;
}

std::string ChannelStats::ToString() const {
  if (fused) {
    char fbuf[160];
    std::snprintf(fbuf, sizeof(fbuf), "->%s[%d] fused tuples=%lld",
                  consumer.c_str(), subtask, static_cast<long long>(tuples));
    return fbuf;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "->%s[%d] %s batches=%lld msgs=%lld tuples=%lld "
                "avg_fill=%.1f",
                consumer.c_str(), subtask, spsc ? "spsc" : "mpmc",
                static_cast<long long>(batches), static_cast<long long>(messages),
                static_cast<long long>(tuples), avg_fill());
  std::string out = buf;
  out += " fill_hist=[";
  for (int i = 0; i < kFillBuckets; ++i) {
    if (i > 0) out += " ";
    out += std::to_string(fill_hist[i]);
  }
  out += "]";
  return out;
}

std::string LatencyStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms",
                static_cast<long long>(count), mean_ms, p50_ms, p95_ms, p99_ms,
                max_ms);
  return buf;
}

int64_t SchedulerStats::total_tasks_run() const {
  int64_t total = 0;
  for (const Worker& w : workers) total += w.tasks_run;
  return total;
}

int64_t SchedulerStats::total_steals() const {
  int64_t total = 0;
  for (const Worker& w : workers) total += w.steals;
  return total;
}

int64_t SchedulerStats::total_parks() const {
  int64_t total = 0;
  for (const Worker& w : workers) total += w.parks;
  return total;
}

int64_t SchedulerStats::total_unparks() const {
  int64_t total = 0;
  for (const Worker& w : workers) total += w.unparks;
  return total;
}

int64_t SchedulerStats::total_batches() const {
  int64_t total = 0;
  for (const Worker& w : workers) total += w.batches;
  return total;
}

double SchedulerStats::quantum_utilization() const {
  const double capacity = static_cast<double>(total_tasks_run()) *
                          static_cast<double>(quantum_batches);
  return capacity > 0 ? static_cast<double>(total_batches()) / capacity : 0.0;
}

std::string SchedulerStats::ToString() const {
  if (!used) return "scheduler: not used";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scheduler: workers=%d tasks=%d quanta=%lld steals=%lld "
                "parks=%lld unparks=%lld timer_parks=%lld quantum_util=%.2f",
                worker_threads, num_tasks,
                static_cast<long long>(total_tasks_run()),
                static_cast<long long>(total_steals()),
                static_cast<long long>(total_parks()),
                static_cast<long long>(total_unparks()),
                static_cast<long long>(timer_parks), quantum_utilization());
  std::string out = buf;
  out += " per_worker=[";
  for (size_t i = 0; i < workers.size(); ++i) {
    const Worker& w = workers[i];
    char wbuf[96];
    std::snprintf(wbuf, sizeof(wbuf), "%sw%d:run=%lld steal=%lld park=%lld",
                  i > 0 ? " " : "", w.worker,
                  static_cast<long long>(w.tasks_run),
                  static_cast<long long>(w.steals),
                  static_cast<long long>(w.parks));
    out += wbuf;
  }
  out += "]";
  return out;
}

std::string PartitionSkew::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s x%d max=%lld mean=%.1f imbalance=%.2f loads=[",
                op.c_str(), parallelism, static_cast<long long>(max_tuples),
                mean_tuples, imbalance());
  std::string out = buf;
  for (size_t i = 0; i < tuples_per_subtask.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(tuples_per_subtask[i]);
  }
  out += "]";
  return out;
}

}  // namespace cep2asp
