// Load generation over the line protocol. One generator thread drives up to
// four connections from a fixed schedule (open loop: request i is due at
// t0 + i / rate whether or not earlier ones were answered, and its latency
// counts from that due time), or keeps a fixed number of requests
// outstanding per connection (saturation). The generator's own sockets set
// TCP_NODELAY, so any hold of a small segment seen here is the server's.
// The generator never sleeps: it spins on a CPU of its own (see
// ReserveGeneratorCpu), because a thread woken from sleep on a shared box
// can run milliseconds late, and a late send delays the answer it would
// have released.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstddef>
#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Request line `i` of a phase (no trailing newline).
using LineSource = std::function<std::string(size_t i)>;

struct PhaseResult {
  /// Per request, in schedule order: latency from the due time (open loop)
  /// or from the send (saturation); +inf when failed.
  std::vector<double> latency_us;
  /// Generator lateness of each send, in schedule order (open loop only;
  /// +inf for requests never sent).
  std::vector<double> lag_us;
  /// Response lines, in schedule order (when kept).
  std::vector<std::string> responses;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< ERR answers plus requests never answered.
  /// Saturation: completions per second in the median quarter-second
  /// window after the warm-up.
  double throughput = 0.0;
};

/// Takes the last CPU this process may run on away from the calling thread,
/// and so from every thread it starts later, and keeps it for the load
/// generator: OpenLoop and Saturate pin their calling thread to it for the
/// phase, as a generator on a machine of its own would run. Call it before
/// the process starts any thread. No-op with fewer than two CPUs.
void ReserveGeneratorCpu();

/// Pins the calling thread to the reserved generator CPU while in scope
/// (no-op when none is reserved).
class GeneratorCpuScope {
 public:
  GeneratorCpuScope();
  ~GeneratorCpuScope();
  GeneratorCpuScope(const GeneratorCpuScope&) = delete;
  GeneratorCpuScope& operator=(const GeneratorCpuScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Connects `n` sockets to 127.0.0.1:`port` (TCP_NODELAY, non-blocking).
/// Returns an empty vector on failure.
std::vector<int> ConnectAll(int port, int n);
void CloseAll(std::vector<int>& fds);

/// Open loop at `rate` requests/s for `seconds` over all `fds`.
PhaseResult OpenLoop(const std::vector<int>& fds, const LineSource& lines,
                     double rate, double seconds, bool keep_responses);

/// Each connection keeps `window` requests outstanding for `seconds`;
/// throughput counts completions after the first `warmup_fraction` of the
/// phase. Line indices continue from `first_index`.
PhaseResult Saturate(const std::vector<int>& fds, const LineSource& lines,
                     size_t first_index, int window, double seconds,
                     double warmup_fraction);

/// One-request-at-a-time client (TCP_NODELAY) for checks, control commands
/// and single timed round trips. It spins for the answer rather than sleep
/// in recv (see above); time it inside a GeneratorCpuScope.
class SyncClient {
 public:
  explicit SyncClient(int port);
  ~SyncClient();
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;
  /// Sends `line` and returns the response line ("" on a transport error).
  std::string RoundTrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
