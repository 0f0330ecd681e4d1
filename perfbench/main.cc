// perfbench: the benchmark's measuring program. run.py builds it and calls
//
//   perfbench train          --work DIR --seed N [--trace 1] [--prefill 1]
//   perfbench train-paper    --work DIR --seed N --seconds S [--trace 1]
//   perfbench serve-uncached --work DIR --seed N --seconds S [--trace 1]
//   perfbench serve-cached   --work DIR --seed N --seconds S [--trace 1]
//   perfbench ingest-refresh --work DIR --seed N --seconds S [--trace 1]
//
// `train` is the separate training process of the serving and ingest
// workloads: it trains and packs the paper-sized model into DIR (and, with
// --prefill, writes the WAL the ingest workload restarts over). Each mode
// prints one result line; see bench_util.h.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "core/serialization.h"
#include "ingest_refresh.h"
#include "pipeline.h"
#include "queries.h"
#include "serving.h"
#include "util/status.h"

namespace perfbench {
namespace {

/// Serving figures measured on train-paper's freshly packed model.
constexpr int kSetupReps = 10;
constexpr size_t kProbeQueries = 5000;

int RunTrain(const Args& args, bool prefill) {
  RunReport report;
  const auto config =
      PaperConfig(args.seed, prefill ? args.work_dir + "/checkpoints0" : "");
  texrheo::eval::ExperimentResult result;
  auto seconds = TrainAndPack(config, args.work_dir + "/model", &result,
                              args.trace ? &report : nullptr);
  ++report.attempted;
  if (!seconds.ok()) {
    std::fprintf(stderr, "perfbench: training failed: %s\n",
                 seconds.status().ToString().c_str());
    return 1;
  }
  CheckTraining(result, config, args.work_dir + "/model", args.seed, &report);
  report.Set("train_s", *seconds, "s");
  report.Set("topic_nmi", TopicNmi(result), "ratio");
  texrheo::Status written = WriteDataset(result.dataset, args.work_dir + "/dataset.txt");
  if (written.ok() && prefill) written = PrefillWal(args, result);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  report.Print();
  return 0;
}

int RunTrainPaper(const Args& args) {
  RunReport report;
  const auto config = PaperConfig(args.seed, "");
  const std::string pack = args.work_dir + "/model";
  texrheo::eval::ExperimentResult result;
  std::vector<double> train_s;
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers;
  const CpuTicks ticks_before = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  while (train_s.empty() || SecondsSince(start) < args.seconds) {
    RunReport rep_layers;
    auto seconds = TrainAndPack(config, pack, &result,
                                args.trace ? &rep_layers : nullptr);
    ++report.attempted;
    if (!seconds.ok()) {
      ++report.failed;
      report.Check(false, "pipeline: " + seconds.status().ToString());
      report.Print();
      return 0;
    }
    if (train_s.empty()) CheckTraining(result, config, pack, args.seed, &report);
    train_s.push_back(*seconds);
    for (const auto& [name, entry] : rep_layers.metrics) {
      layers[name].first.push_back(entry.first);
      layers[name].second = entry.second;
    }
  }
  for (const auto& [name, entry] : layers) {
    report.Set(name, Median(entry.first), entry.second);
  }
  report.Set("train_s", Median(train_s), "s");
  report.detail["pipeline_runs"] = static_cast<double>(train_s.size());
  report.detail["box_steal_share"] = StealShare(ticks_before, ReadCpuTicks());
  report.Set("topic_nmi", TopicNmi(result), "ratio");

  // The fresh pack served: start-up and single PREDICTs on the idle
  // server. The probing client gets a CPU of its own, as the serving
  // workloads' generator does.
  ReserveGeneratorCpu();
  StackOptions options;
  options.pack_idx = pack + ".idx";
  options.corpus = &result.dataset;
  std::unique_ptr<Stack> stack =
      StartRepeatedly(options, kSetupReps, nullptr, args, &report);
  if (stack != nullptr) {
    AnswerChecker checker(
        texrheo::core::MakeSnapshot(result.estimates, result.dataset.term_vocab),
        /*dictionary_vocab=*/true);
    QueryMaker maker(&result.dataset, SubSeed(args.seed, 30));
    GeneratorCpuScope pinned;
    SyncClient client(stack->front_port());
    std::vector<double> latency;
    for (size_t i = 0; i < kProbeQueries; ++i) {
      const std::string line = maker.Next().PredictLine();
      const Clock::time_point t = Clock::now();
      const std::string body = client.RoundTrip(line);
      latency.push_back(SecondsSince(t) * 1e6);
      ++report.attempted;
      std::string why;
      if (body.rfind("OK", 0) != 0) ++report.failed;
      report.Check(checker.CheckPredict(body, &why), why);
    }
    report.Set("latency_p50_us", Quantile(latency, 0.5), "us");
    report.Set("serve.latency_p90_us", Quantile(latency, 0.9), "us");
    stack.reset();
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <mode> --work DIR --seed N "
                         "[--seconds S] [--trace 0|1] [--prefill 0|1]\n");
    return 2;
  }
  Args args;
  args.workload = argv[1];
  bool prefill = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--work") {
      args.work_dir = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--prefill") {
      prefill = value == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --work and a positive --seconds needed\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "train") return perfbench::RunTrain(args, prefill);
  if (args.workload == "train-paper") return perfbench::RunTrainPaper(args);
  if (args.workload == "serve-uncached") return perfbench::RunServe(args, false);
  if (args.workload == "serve-cached") return perfbench::RunServe(args, true);
  if (args.workload == "ingest-refresh") return perfbench::RunIngestRefresh(args);
  std::fprintf(stderr, "perfbench: unknown mode %s\n", args.workload.c_str());
  return 2;
}
