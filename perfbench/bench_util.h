// Shared plumbing of the benchmark: clocks, order statistics, the result
// record every workload prints, and the checks that mark a run incorrect.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `t0`.
double SecondsSince(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries
/// (failed operations) sort last. Empty input gives 0.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// The machine's CPU time from /proc/stat (clock ticks, all CPUs): the
/// part stolen by other guests of the host, and the total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Share of the machine's CPU time between `a` and `b` that was stolen.
double StealShare(const CpuTicks& a, const CpuTicks& b);

/// What one benchmark process reports. `metrics` maps name -> (value, unit);
/// `detail` carries extra per-run numbers (p99, generator lateness, tracing
/// comparisons) printed on a line of their own before the result line.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> detail;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check: the run is marked incorrect and the
  /// reason goes to stderr. Returns `ok` so callers can chain.
  bool Check(bool ok, const std::string& what);

  /// Prints "detail {...}" (when non-empty) and then the one-line result
  /// JSON object on stdout.
  void Print() const;
};

/// Seed-derived sub-seeds, so workloads never share a random stream.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
