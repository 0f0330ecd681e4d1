// Measurement steps shared by the serving and ingest workloads.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "stack.h"
#include "wire.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::string work_dir;  ///< Holds the trained pack and dataset.
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Starts the stack `reps` times and keeps the last one running; every
/// start-up is timed whole (setup_s is their median) and the step timings
/// go to the per-layer metrics when tracing. `before_each` runs untimed
/// ahead of every start (e.g. restoring the pre-filled WAL).
std::unique_ptr<Stack> StartRepeatedly(const StackOptions& options, int reps,
                                       const std::function<void(int)>& before_each,
                                       const Args& args, RunReport* report);

/// Open loop inside the process: `threads` workers share the schedule
/// (request i due at t0 + i / rate) and call op(i) synchronously. Returns
/// per-request latency from the due time in microseconds (+inf when op
/// returned false).
std::vector<double> InProcessOpenLoop(const std::function<bool(size_t)>& op,
                                      size_t count, double rate, int threads);

/// Times `n` sequential calls of op(i); microseconds each (+inf on false).
std::vector<double> TimeEach(const std::function<bool(size_t)>& op, size_t n);

/// Adds timed in-process calls (+inf = failed) to the operation counts.
void CountTimed(const std::vector<double>& us, RunReport* report);

/// Adds a wire phase to the run's operation counts.
void CountPhase(const PhaseResult& phase, RunReport* report);

/// Lateness (us) below which the generator counts as on time.
inline constexpr double kOnTimeUs = 1000.0;

/// latency_p50_us / serve.latency_p90_us of an open-loop phase: quantiles
/// over every request of the phase, each timed from its due time, late
/// sends and failed requests (+inf) included. p99, the share the generator
/// sent on time and its lateness go to the detail line.
void ReportLatency(const PhaseResult& phase, RunReport* report);

/// Sends each of `lines` through the router and straight to the replica
/// that owns it, checks the answers are byte-identical, and (when tracing)
/// sets router.overhead_us and router.retries.
void CompareRouterWithReplicas(const Stack& stack,
                               const std::vector<std::string>& lines,
                               bool trace, RunReport* report);

/// Refresh without retraining: `cycles` times, reload every serving engine
/// from `pack_idx` through `reload_command` ("RELOAD" or "ROLLING_RELOAD")
/// on the front, then time the first fresh PREDICT the reloaded snapshot
/// answers. Sets serve.reload_ms (the median reload); the median reload
/// plus first answer goes to the detail line.
void ReloadCycles(const std::string& pack_idx, int front_port,
               const std::string& reload_command,
               const std::function<std::string()>& fresh_predict, int cycles,
               RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
