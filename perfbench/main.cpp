// biot_bench: runs one named workload from a seed, checks its outputs and
// prints its metrics. perfbench/run.py builds this binary and invokes it;
// see perfbench/README.md for workloads, metrics and how to run.
//
//   biot_bench --workload fleet|ingest|restart --seed N --seconds S
//              [--trace 0|1] [--trace-out PATH] [--work-dir DIR]
//              [--provenance JSON] [--tiny] [--inject-fault]
//
// Output: one "detail" JSON line with every measured value (unit and
// sample count), the operation counts, the failed checks and provenance.
// run.py turns it into the result object, picking the end-to-end metrics
// (untraced) or the per-layer ones (traced) that BENCHMARK.json names. Exit
// status is 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Report;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metric_json(const perfbench::Metric& m) {
  return "{\"value\": " + number(m.value) + ", \"unit\": " + quote(m.unit) +
         ", \"samples\": " + std::to_string(m.samples) + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "biot_bench: %s\nusage: biot_bench --workload fleet|ingest|"
               "restart --seed N --seconds S [--trace 0|1] [--trace-out PATH] "
               "[--work-dir DIR] [--provenance JSON] [--tiny] "
               "[--inject-fault]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "biot_bench: refusing to report from a non-optimized build "
               "(build type %s)\n",
               BIOT_BENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options options;
  std::string provenance = "{}";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--provenance") {
      provenance = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  Report report;
  perfbench::SpanLog spans(options.trace);
  try {
    if (options.workload == "fleet") {
      perfbench::run_fleet(options, report, spans);
    } else if (options.workload == "ingest") {
      perfbench::run_ingest(options, report, spans);
    } else if (options.workload == "restart") {
      perfbench::run_restart(options, report, spans);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  // Workloads record peak RSS at the end of their measured region; this is
  // the fallback for a run that ended before it.
  if (!report.metrics.contains("peak_rss_mb"))
    report.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  if (options.trace && !options.trace_out.empty() &&
      !spans.write_json(options.trace_out))
    report.check(false, "cannot write spans to " + options.trace_out);

  for (const auto& f : report.check_failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  const std::uint64_t attempted = std::max<std::uint64_t>(
      1, report.attempted + report.check_failures.size());
  const std::uint64_t failed = report.failed + report.check_failures.size();
  report.set("failed_ratio",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio", attempted);

  // Detail line: everything measured, with provenance.
  std::string detail = "{\"detail\": {\"workload\": " +
                       quote(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + number(options.seconds) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"threads\": " + std::to_string(options.threads) +
                       ", \"build_type\": " + quote(BIOT_BENCH_BUILD_TYPE) +
                       ", \"compiler\": " + quote(__VERSION__) +
                       ", \"provenance\": " + provenance +
                       ", \"correct\": " +
                       (report.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"check_failures\": [";
  for (std::size_t i = 0; i < report.check_failures.size(); ++i)
    detail += (i ? ", " : "") + quote(report.check_failures[i]);
  detail += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    detail += (first ? "" : ", ") + quote(name) + ": " + metric_json(m);
    first = false;
  }
  std::printf("%s}}}\n", detail.c_str());
  return report.correct() ? 0 : 1;
}
