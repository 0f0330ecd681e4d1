#include "measure.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>


namespace perfbench {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::unique_ptr<Stack> StartRepeatedly(
    const StackOptions& options, int reps,
    const std::function<void(int)>& before_each, const Args& args,
    RunReport* report) {
  std::vector<double> total_s, load_ms, create_ms, recover_ms;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < reps; ++r) {
    stack.reset();  // Tear-down of the previous start is not timed.
    if (before_each) before_each(r);
    StackTimings timings;
    const Clock::time_point t0 = Clock::now();
    auto started = Stack::Start(options, &timings);
    total_s.push_back(SecondsSince(t0));
    ++report->attempted;
    if (!started.ok()) {
      ++report->failed;
      report->Check(false, "start-up: " + started.status().ToString());
      return nullptr;
    }
    stack = std::move(started).value();
    load_ms.push_back(timings.load_ms);
    create_ms.push_back(timings.engine_create_ms);
    recover_ms.push_back(timings.recover_ms);
  }
  report->Set("setup_s", Median(total_s), "s");
  report->detail["setup_reps"] = reps;
  if (args.trace) {
    report->Set("serve.load_ms", Median(load_ms), "ms");
    report->Set("serve.engine_create_ms", Median(create_ms), "ms");
    if (options.ingest != nullptr) {
      report->Set("ingest.recover_ms", Median(recover_ms), "ms");
    }
  }
  return stack;
}

std::vector<double> InProcessOpenLoop(const std::function<bool(size_t)>& op,
                                      size_t count, double rate,
                                      int threads) {
  std::vector<double> latency(count, kInf);
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate));
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) {
        std::this_thread::sleep_until(due(i));
        const bool ok = op(i);
        if (ok) {
          latency[i] = std::chrono::duration<double, std::micro>(
                           Clock::now() - due(i))
                           .count();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return latency;
}

std::vector<double> TimeEach(const std::function<bool(size_t)>& op, size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t = Clock::now();
    const bool ok = op(i);
    out.push_back(ok ? std::chrono::duration<double, std::micro>(Clock::now() - t)
                           .count()
                     : kInf);
  }
  return out;
}

void CountTimed(const std::vector<double>& us, RunReport* report) {
  report->attempted += us.size();
  report->failed += static_cast<uint64_t>(
      std::count_if(us.begin(), us.end(), [](double v) { return std::isinf(v); }));
}

void CountPhase(const PhaseResult& phase, RunReport* report) {
  report->attempted += phase.attempted;
  report->failed += phase.failed;
}

void ReportLatency(const PhaseResult& phase, RunReport* report) {
  const std::vector<double>& lat = phase.latency_us;
  const std::vector<double>& lag = phase.lag_us;
  const size_t on_time = static_cast<size_t>(std::count_if(
      lag.begin(), lag.end(), [](double v) { return v < kOnTimeUs; }));
  report->Set("latency_p50_us", Quantile(lat, 0.5), "us");
  report->Set("serve.latency_p90_us", Quantile(lat, 0.9), "us");
  report->detail["latency_p99_us"] = Quantile(lat, 0.99);
  report->detail["latency_samples"] = static_cast<double>(lat.size());
  report->detail["latency_on_time_share"] =
      lag.empty() ? 0.0
                  : static_cast<double>(on_time) / static_cast<double>(lag.size());
  report->detail["generator_lag_p50_us"] = Quantile(lag, 0.5);
  report->detail["generator_lag_p99_us"] = Quantile(lag, 0.99);
  report->detail["generator_lag_max_us"] = Quantile(lag, 1.0);
  report->Set("bench.generator_lag_us", Quantile(lag, 0.5), "us");
}

void CompareRouterWithReplicas(const Stack& stack,
                               const std::vector<std::string>& lines,
                               bool trace, RunReport* report) {
  GeneratorCpuScope pinned;
  SyncClient front(stack.front_port());
  std::vector<std::unique_ptr<SyncClient>> direct;
  for (int i = 0; i < stack.num_replicas(); ++i) {
    direct.push_back(std::make_unique<SyncClient>(stack.replica_port(i)));
  }
  std::vector<double> via_router, straight;
  const int rounds = trace ? 20 : 1;
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& line : lines) {
      const int owner = stack.router()->CandidatesFor(line).at(0);
      Clock::time_point t = Clock::now();
      const std::string a = front.RoundTrip(line);
      via_router.push_back(SecondsSince(t) * 1e6);
      t = Clock::now();
      const std::string b = direct[static_cast<size_t>(owner)]->RoundTrip(line);
      straight.push_back(SecondsSince(t) * 1e6);
      report->attempted += 2;
      report->failed += (a.rfind("OK", 0) != 0) + (b.rfind("OK", 0) != 0);
      report->Check(a == b && !a.empty(),
                    "router answer differs from replica: " + a + " / " + b);
    }
  }
  if (trace) {
    report->Set("router.overhead_us", Median(via_router) - Median(straight),
                "us");
    report->Set("router.retries",
                static_cast<double>(
                    stack.router()->metrics()->TakeSnapshot().CounterValue(
                        "router.retries")),
                "count");
  }
}

void ReloadCycles(const std::string& pack_idx, int front_port,
               const std::string& reload_command,
               const std::function<std::string()>& fresh_predict, int cycles,
               RunReport* report) {
  GeneratorCpuScope pinned;
  SyncClient client(front_port);
  std::vector<double> reload_s, answered_us;
  for (int c = 0; c < cycles; ++c) {
    const std::string probe = fresh_predict();
    const Clock::time_point t0 = Clock::now();
    const std::string reloaded = client.RoundTrip(reload_command + " " + pack_idx);
    const Clock::time_point t1 = Clock::now();
    const std::string answer = client.RoundTrip(probe);
    const Clock::time_point t2 = Clock::now();
    report->attempted += 2;
    report->failed += (reloaded.rfind("OK", 0) != 0) + (answer.rfind("OK", 0) != 0);
    report->Check(answer.find(" cached=0") != std::string::npos,
                  "reload cycle: " + reloaded + " / " + answer);
    reload_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    answered_us.push_back(std::chrono::duration<double, std::micro>(t2 - t0).count());
  }
  report->detail["reload_first_answer_p50_us"] = Median(answered_us);
  report->detail["reload_cycles"] = cycles;
  report->Set("serve.reload_ms", Median(reload_s) * 1e3, "ms");
}

}  // namespace perfbench
