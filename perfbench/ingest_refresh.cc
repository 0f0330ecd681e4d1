#include "ingest_refresh.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/model_binary.h"
#include "corpus/stream.h"
#include "ingest/record.h"
#include "pipeline.h"
#include "queries.h"
#include "recipe/ingredient.h"
#include "rheology/gel_model.h"
#include "text/texture_dictionary.h"
#include "text/vocabulary.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace ingest = texrheo::ingest;
using texrheo::Status;

namespace {

/// Records acknowledged in the WAL before the service restarts.
constexpr size_t kPrefillRecords = 300;
constexpr double kRecordRate = 100.0;  ///< Records/s offered to Ingest.
constexpr double kQueryRate = 1000.0;   ///< Queries/s through the router.
/// Every tenth record slot redelivers an earlier acknowledged record.
constexpr size_t kRedeliverEvery = 10;
constexpr int kRefreshCycles = 5;
constexpr int kSetupReps = 7;
constexpr int kConnections = 4;
constexpr int kSaturationWindow = 4;
/// Phase lengths as shares of --seconds.
constexpr double kStreamShare = 0.65;
constexpr double kSaturationShare = 0.25;

texrheo::corpus::RecipeStreamConfig StreamConfig(uint64_t seed) {
  texrheo::corpus::RecipeStreamConfig config;
  config.seed = SubSeed(seed, 20);
  return config;
}

ingest::IngestServiceConfig ServiceConfig(const Args& args,
                                          const std::string& wal_dir,
                                          texrheo::obs::Tracer* tracer) {
  const auto paper = PaperConfig(args.seed, args.work_dir + "/checkpoints");
  ingest::IngestServiceConfig config;
  config.wal_dir = wal_dir;
  config.tracer = tracer;
  config.refresh.train = paper.model;
  config.refresh.model_dir = args.work_dir + "/models";
  config.refresh.feature = paper.dataset.feature;
  return config;
}

/// Next record of the drifting stream at or after *position.
ingest::IngestRecord NextRecord(texrheo::corpus::RecipeStream& stream,
                                uint64_t* position) {
  for (;;) {
    auto record = ingest::RecordFromStream(
        stream.At((*position)++),
        texrheo::recipe::IngredientDatabase::Embedded());
    if (record.ok()) return std::move(record).value();
  }
}

/// FileOps that times every sync the WAL issues.
class TimingFileOps : public texrheo::FileOps {
 public:
  Status Sync(int fd) override {
    const Clock::time_point t = Clock::now();
    Status status = FileOps::Sync(fd);
    std::lock_guard<std::mutex> lock(mu_);
    sync_us_.push_back(SecondsSince(t) * 1e6);
    return status;
  }
  std::vector<double> sync_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_us_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> sync_us_;
};

}  // namespace

Status PrefillWal(const Args& args, texrheo::eval::ExperimentResult& trained) {
  TEXRHEO_ASSIGN_OR_RETURN(
      auto snapshot,
      texrheo::serve::ServingSnapshot::FromFile(args.work_dir + "/model.idx"));
  TEXRHEO_ASSIGN_OR_RETURN(
      auto engine, texrheo::serve::QueryEngine::Create(
                       texrheo::serve::QueryEngineConfig{}, snapshot,
                       &trained.dataset));
  const auto config = ServiceConfig(args, args.work_dir + "/wal0", nullptr);
  TEXRHEO_ASSIGN_OR_RETURN(
      auto service,
      ingest::IngestService::Create(config, engine.get(), &trained.dataset));
  TEXRHEO_RETURN_IF_ERROR(service->Recover());
  texrheo::corpus::RecipeStream stream(
      StreamConfig(args.seed),
      &texrheo::rheology::GelPhysicsModel::Calibrated(),
      &texrheo::text::TextureDictionary::Embedded());
  uint64_t position = 0;
  for (size_t i = 0; i < kPrefillRecords; ++i) {
    TEXRHEO_ASSIGN_OR_RETURN(auto acked,
                             service->Ingest(NextRecord(stream, &position)));
    if (acked.deduped) --i;  // The stream repeated a recipe: not a new record.
  }
  std::ofstream(args.work_dir + "/stream_position") << position << '\n';
  return Status::OK();
}

int RunIngestRefresh(const Args& args) {
  ReserveGeneratorCpu();
  RunReport report;
  auto corpus_or = ReadDataset(args.work_dir + "/dataset.txt");
  auto model_or = texrheo::core::ReadModelBinary(args.work_dir + "/model");
  uint64_t position = 0;
  std::ifstream(args.work_dir + "/stream_position") >> position;
  if (!corpus_or.ok() || !model_or.ok() || position == 0) {
    std::fprintf(stderr, "perfbench: cannot read the trained model or WAL\n");
    return 1;
  }
  const texrheo::recipe::Dataset corpus = std::move(corpus_or).value();
  const size_t base_docs = corpus.documents.size();
  const texrheo::text::Vocabulary& base_vocab = corpus.term_vocab;
  // Refreshes add churned terms outside the dictionary to the vocabulary.
  AnswerChecker checker(std::move(model_or).value(), /*dictionary_vocab=*/false);

  // Refreshes warm-start from, and add to, the base run's checkpoints.
  fs::remove_all(args.work_dir + "/checkpoints");
  fs::copy(args.work_dir + "/checkpoints0", args.work_dir + "/checkpoints",
           fs::copy_options::recursive);

  // The WAL lives in the checkout's build directory, on the same disk a
  // deployment's data directory would use, so fsync cost is real.
  const std::string wal0 = args.work_dir + "/wal0";
  const std::string wal = args.work_dir + "/wal";
  TimingFileOps timing_ops;
  texrheo::obs::Tracer spans(
      nullptr, texrheo::obs::Tracer::Options{args.trace ? 4096u : 0u});
  const ingest::IngestServiceConfig service_config =
      ServiceConfig(args, wal, &spans);
  StackOptions options;
  options.pack_idx = args.work_dir + "/model.idx";
  options.corpus = &corpus;
  options.replicas = 3;
  options.router = true;
  options.ingest = &service_config;
  options.ingest_file_ops = args.trace ? &timing_ops : nullptr;
  std::unique_ptr<Stack> stack = StartRepeatedly(
      options, kSetupReps,
      [&](int) {
        fs::remove_all(wal);
        fs::copy(wal0, wal, fs::copy_options::recursive);
      },
      args, &report);
  if (stack == nullptr) {
    report.Print();
    return 0;
  }
  ingest::IngestService* service = stack->service();
  texrheo::serve::QueryEngine* engine = stack->engine(0);
  const uint64_t recovered = service->high_water_sequence();
  report.Check(recovered == kPrefillRecords,
               "recovered " + std::to_string(recovered) + " of " +
                   std::to_string(kPrefillRecords) + " acknowledged records");

  std::vector<double> reload_ms;
  service->SetReloadCallback([&](const std::string& path) {
    const Clock::time_point t = Clock::now();
    std::string summary;
    Status status = stack->router()->RollingReload(path, &summary);
    reload_ms.push_back(SecondsSince(t) * 1e3);
    return status;
  });

  const double phase_s = args.seconds * kStreamShare;
  // Odd while a refresh runs; a queryability check that saw it change (or
  // odd) may have straddled a refresh, which re-folds the record.
  std::atomic<int> refresh_epoch{0};

  // Query stream through the router; terms come from the served vocabulary.
  std::vector<int> fds = ConnectAll(stack->front_port(), kConnections);
  QueryMaker maker(&corpus, SubSeed(args.seed, 21));
  LineSource lines = [&](size_t) { return maker.Next().PredictLine(); };
  PhaseResult queries;
  std::thread query_thread([&] {
    queries = OpenLoop(fds, lines, kQueryRate, phase_s, true);
  });

  // Record stream: new records, every kRedeliverEvery-th slot a redelivery.
  std::vector<uint64_t> acked_seq;
  std::vector<ingest::IngestRecord> acked_records;
  std::vector<double> ingest_us, queryable_us;
  uint64_t write_ops = 0, write_failures = 0, redeliveries = 0,
           redelivered_same = 0, verified = 0, churned = 0;
  std::vector<std::string> write_errors;
  std::thread writer([&] {
    texrheo::corpus::RecipeStream stream(
        StreamConfig(args.seed),
        &texrheo::rheology::GelPhysicsModel::Calibrated(),
        &texrheo::text::TextureDictionary::Embedded());
    const size_t slots = static_cast<size_t>(kRecordRate * phase_s);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < slots; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(
                   static_cast<int64_t>(static_cast<double>(i) * 1e6 / kRecordRate)));
      ++write_ops;
      if (i % kRedeliverEvery == kRedeliverEvery - 1 && !acked_records.empty()) {
        const size_t j = (i * 7) % acked_records.size();
        auto again = service->Ingest(acked_records[j]);
        ++redeliveries;
        if (!again.ok()) {
          ++write_failures;
        } else if (again->deduped && again->sequence == acked_seq[j]) {
          ++redelivered_same;
        } else {
          write_errors.push_back("redelivery answered seq " +
                                 std::to_string(again->sequence) + " for " +
                                 std::to_string(acked_seq[j]));
        }
        continue;
      }
      ingest::IngestRecord record = NextRecord(stream, &position);
      const int epoch = refresh_epoch.load();
      const Clock::time_point start = Clock::now();
      auto acked = service->Ingest(record);
      ingest_us.push_back(SecondsSince(start) * 1e6);
      if (!acked.ok()) {
        ++write_failures;
        continue;
      }
      if (acked->deduped) {  // The stream repeated a recipe: not a new one.
        --i;
        continue;
      }
      acked_seq.push_back(acked->sequence);
      acked_records.push_back(record);
      if (std::any_of(record.terms.begin(), record.terms.end(),
                      [&](const std::string& t) {
                        return base_vocab.IdOf(t) ==
                               texrheo::text::Vocabulary::kUnknownId;
                      })) {
        ++churned;
      }
      // Queryable: a SIMILAR query with the record's concentrations is
      // answered, and when its fold-in lands in the record's topic the
      // answer lists the record (emulsion KL 0). A refresh in between
      // re-folds the record into a topic of its own.
      texrheo::serve::TextureQuery query = ingest::RecordToQuery(record);
      auto snapshot = engine->snapshot();
      std::erase_if(query.texture_terms, [&](const std::string& t) {
        return snapshot->WordId(t) == texrheo::text::Vocabulary::kUnknownId;
      });
      ++write_ops;
      auto similar = engine->SimilarRecipes(query, 20);
      if (!similar.ok()) {
        ++write_failures;
        continue;
      }
      queryable_us.push_back(SecondsSince(start) * 1e6);
      const bool refolded = epoch % 2 != 0 || refresh_epoch.load() != epoch;
      const bool listed = std::any_of(
          similar->recipes.begin(), similar->recipes.end(), [&](const auto& r) {
            return r.recipe_index >= base_docs && r.divergence <= 1e-9;
          });
      if (listed) {
        ++verified;
      } else if (!refolded && similar->topic == acked->topic) {
        write_errors.push_back("record seq " + std::to_string(acked->sequence) +
                               " missing from its topic's SIMILAR answer");
      }
    }
  });

  // Refresh cycles at fixed points of the phase.
  std::vector<double> refresh_s;
  std::vector<ingest::IngestService::RefreshOutcome> outcomes;
  const Clock::time_point phase_start = Clock::now();
  const CpuTicks ticks_before = ReadCpuTicks();
  for (int c = 0; c < kRefreshCycles; ++c) {
    std::this_thread::sleep_until(
        phase_start + std::chrono::microseconds(static_cast<int64_t>(
                          phase_s * 1e6 * (c + 1) / (kRefreshCycles + 1))));
    ++refresh_epoch;
    const Clock::time_point t = Clock::now();
    auto outcome = service->Refresh();
    refresh_s.push_back(SecondsSince(t));
    ++refresh_epoch;
    ++report.attempted;
    if (!outcome.ok()) {
      ++report.failed;
      report.Check(false, "refresh: " + outcome.status().ToString());
      continue;
    }
    outcomes.push_back(*outcome);
    for (int r = 0; r < stack->num_replicas(); ++r) {
      report.Check(stack->engine(r)->snapshot()->fingerprint() ==
                       outcome->fingerprint,
                   "replica " + std::to_string(r) +
                       " does not serve the refreshed fingerprint");
    }
  }
  writer.join();
  query_thread.join();
  report.detail["box_steal_share"] = StealShare(ticks_before, ReadCpuTicks());
  CountPhase(queries, &report);
  report.attempted += write_ops;
  report.failed += write_failures;
  ReportLatency(queries, &report);
  for (const std::string& why : write_errors) report.Check(false, why);
  for (const std::string& body : queries.responses) {
    std::string why;
    if (!body.empty() && body[0] == 'O' && !checker.CheckPredict(body, &why)) {
      report.Check(false, why);
      break;
    }
  }

  // Acknowledged sequences are dense and unique, and each refresh trained
  // on the base documents plus every record acknowledged up to its cover.
  std::vector<uint64_t> sorted = acked_seq;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (!report.Check(sorted[i] == recovered + 1 + i,
                      "acknowledged sequences are not dense and unique")) {
      break;
    }
  }
  for (const auto& outcome : outcomes) {
    const size_t covered = static_cast<size_t>(std::count_if(
        acked_seq.begin(), acked_seq.end(),
        [&](uint64_t s) { return s <= outcome.covered_sequence; }));
    report.Check(outcome.trained_documents ==
                     base_docs + kPrefillRecords + covered,
                 "refresh trained on " +
                     std::to_string(outcome.trained_documents) +
                     " documents, expected " +
                     std::to_string(base_docs + kPrefillRecords + covered));
  }

  // Read capacity through the router after the refreshes.
  PhaseResult saturation = Saturate(fds, lines, 0, kSaturationWindow,
                                    args.seconds * kSaturationShare, 0.2);
  CountPhase(saturation, &report);
  CloseAll(fds);
  std::vector<std::string> topics;
  for (int k = 0; k < checker.num_topics(); ++k) {
    topics.push_back("TOPIC " + std::to_string(k));
  }
  CompareRouterWithReplicas(*stack, topics, args.trace, &report);

  report.Set("serve.throughput_qps", saturation.throughput, "1/s");
  report.Set("ingest.queryable_p50_us", Median(queryable_us), "us");
  report.Set("ingest.refresh_s", Median(refresh_s), "s");
  for (size_t c = 0; c < refresh_s.size(); ++c) {
    report.detail["refresh_cycle_" + std::to_string(c + 1) + "_s"] = refresh_s[c];
  }
  report.detail["records_acknowledged"] = static_cast<double>(acked_seq.size());
  report.detail["redeliveries"] = static_cast<double>(redeliveries);
  report.detail["churned_term_records"] = static_cast<double>(churned);
  report.detail["queryable_listed"] = static_cast<double>(verified);
  report.detail["queryable_p90_us"] = Quantile(queryable_us, 0.9);
  if (args.trace) {
    report.Set("ingest.ingest_us", Median(ingest_us), "us");
    report.Set("ingest.wal_sync_us", Median(timing_ops.sync_us()), "us");
    report.Set("ingest.dedup_ratio",
               redeliveries == 0 ? 0.0
                                 : static_cast<double>(redelivered_same) /
                                       static_cast<double>(redeliveries),
               "ratio");
    report.Set("serve.reload_ms", Median(reload_ms), "ms");
    std::map<std::string, std::vector<double>> by_name;
    for (const auto& span : spans.Records()) {
      by_name[span.name].push_back(static_cast<double>(span.duration_micros) / 1e3);
    }
    for (const char* name : {"build_dataset", "train", "pack", "compact"}) {
      report.Set(std::string("ingest.refresh.") + name + "_ms",
                 Median(by_name[name]), "ms");
    }
  }
  stack.reset();
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return 0;
}

}  // namespace perfbench
