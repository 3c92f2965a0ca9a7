// Shared plumbing of the biot_bench program: run options, the metric report,
// the in-memory span log and small statistics helpers.
//
// Every layer is timed from outside, around calls into its public API; the
// program under test is not instrumented. A run either measures end-to-end
// metrics (tracing off) or records spans and derives the per-layer metrics
// (tracing on). perfbench/run.py picks the metrics BENCHMARK.json names out
// of everything a run reports.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the smoke test; never used for reported numbers.
  bool tiny = false;
  /// Deliberately corrupts the value a correctness check compares, to prove
  /// the check fails the run.
  bool inject_fault = false;
  std::string trace_out;  // where the traced run writes its spans
  std::string work_dir = ".";  // scratch files (the restart replica)
  unsigned threads = 1;   // min(nproc, 4)
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double wall_now();

/// CPU seconds this process has used. For a region that runs on one thread
/// it is that region's wall time minus the time the host did not run it
/// (preemption, steal on a shared VM), so it is the steadier clock there.
double cpu_now();

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Pins the calling thread, for the pin's lifetime, to the `k`-th (cycling)
/// of the CPUs this process may run on. On a shared VM each virtual CPU
/// slows down on its own schedule, so repetitions of identical work spread
/// over the CPUs let the fastest repetition come from a quiet one. Does
/// nothing where the affinity cannot be read or set.
class CpuPin {
 public:
  explicit CpuPin(std::size_t k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// One named result: value, unit and the number of samples it reduces.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Result of one run: every measured metric, the workload's operation
/// counts and the correctness checks that failed.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<double> setup_times;  // every timed set-up, for setup_s

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const { return check_failures.empty(); }
};

/// A timed interval at a layer boundary. `parent` indexes the enclosing span
/// (-1 at the root); `tag` is the slice, burst or recovery number.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t tag = 0;
};

/// In-memory span recorder. Disabled logs record nothing, so untraced runs
/// pay only the branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const std::string& name, std::uint64_t tag = 0);
  void close(int index);

  /// Sum over spans called `name` of their duration minus the part of it
  /// covered by their direct children: the layer's busy time.
  double self_time(const std::string& name) const;

  /// Writes every span as JSON (name, start, end, parent, tag).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t tag = 0)
      : log_(log), index_(log.open(name, tag)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

double median(std::vector<double> xs);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Records `<name>_p50` and the highest of p99.9/p99/p90 that still has at
/// least ten samples beyond it, as `<name>_p<q>`, both with the sample count.
void record_distribution(Report& report, const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit);

/// Least-squares slope of log(y) against log(x) over positive pairs.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

/// Repeats `setup` `reps` times, timing each on `clock` (wall_now or
/// cpu_now), and returns the product of the last repetition. setup_s is the
/// median over every set-up the run has timed so far.
template <typename Fn>
auto timed_setup(Report& report, int reps, double (*clock)(), Fn&& setup) {
  auto& times = report.setup_times;
  for (int r = 1; r < reps; ++r) {
    const double t0 = clock();
    const auto discarded = setup();  // torn down after the clock stops
    times.push_back(clock() - t0);
  }
  const double t0 = clock();
  auto product = setup();
  times.push_back(clock() - t0);
  report.set("setup_s", median(times), "s", times.size());
  return product;
}

void run_fleet(const Options& options, Report& report, SpanLog& spans);
void run_ingest(const Options& options, Report& report, SpanLog& spans);
void run_restart(const Options& options, Report& report, SpanLog& spans);

}  // namespace perfbench
