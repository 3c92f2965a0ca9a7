#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuPin::CpuPin(std::size_t k) {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const auto allowed = static_cast<std::size_t>(CPU_COUNT(&saved_));
  if (allowed < 2) return;
  std::size_t skip = k % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
}

int SpanLog::open(const std::string& name, std::uint64_t tag) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, wall_now(), 0.0, parent, tag});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = wall_now();
  // Spans close innermost-first (ScopedSpan), so `index` is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanLog::self_time(const std::string& name) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name)
      total += (spans_[i].end - spans_[i].start) - child_time[i];
  }
  return total;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d, \"tag\": %llu}%s\n",
                 s.name.c_str(), s.start - origin, s.end - origin, s.parent,
                 static_cast<unsigned long long>(s.tag),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Missing samples are +inf; never interpolate into them (inf * 0 is NaN).
  if (frac == 0.0 || std::isinf(xs[hi])) return frac == 0.0 ? xs[lo] : xs[hi];
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

void record_distribution(Report& report, const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  report.set(name + "_p50", percentile(samples, 50.0), unit, samples.size());
  const double n = static_cast<double>(samples.size());
  for (const auto& [q, tag] : {std::pair{99.9, "p99.9"}, std::pair{99.0, "p99"},
                               std::pair{90.0, "p90"}}) {
    if (n * (1.0 - q / 100.0) >= 10.0) {
      report.set(name + "_" + tag, percentile(samples, q), unit,
                 samples.size());
      return;
    }
  }
}

double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] <= 0.0 || y[i] <= 0.0) continue;
    const double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (n < 2 || denom == 0.0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace perfbench
