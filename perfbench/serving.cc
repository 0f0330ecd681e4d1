// serve-uncached and serve-cached: open-loop load on the line protocol,
// then a saturation phase, then checks of every answer kept.
#include "serving.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

#include "core/model_binary.h"
#include "pipeline.h"
#include "queries.h"
#include "recipe/features.h"
#include "util/rng.h"

namespace perfbench {

namespace serve = texrheo::serve;

namespace {

/// Offered rates (requests/s over four connections). Both sit well below
/// the saturation throughput measured at the commit that introduced this
/// benchmark (see README.md).
constexpr double kUncachedRate = 2000.0;
constexpr double kCachedRate = 4000.0;
constexpr int kConnections = 4;
/// Outstanding requests per connection in the saturation phase: the knee
/// of throughput against depth (README.md, "Saturation depth").
constexpr int kSaturationWindow = 4;
constexpr int kSetupReps = 15;
constexpr int kReloadCycles = 100;

/// Phase lengths as shares of --seconds.
constexpr double kWarmupShare = 0.1;
constexpr double kOpenLoopShare = 0.5;
constexpr double kSaturationShare = 0.3;

/// Fixed key set of serve-cached: sizes per query type and the mix.
constexpr size_t kPredictKeys = 400;
constexpr size_t kSimilarKeys = 150;
constexpr double kZipfExponent = 1.1;
const char* const kNearestMethods[] = {"gaussian-kl", "neg-log-density",
                                       "mahalanobis", "euclidean"};

/// Sums of engine counters over replicas.
struct EngineTotals {
  uint64_t hits = 0, lookups = 0, batches = 0, jobs = 0;
};

EngineTotals Totals(const Stack& stack) {
  EngineTotals t;
  for (int i = 0; i < stack.num_replicas(); ++i) {
    serve::QueryEngineStats s = stack.engine(i)->GetStats();
    t.hits += s.cache.hits;
    t.lookups += s.cache.hits + s.cache.misses;
    t.batches += s.batcher.batches;
    t.jobs += s.batcher.jobs_processed;
  }
  return t;
}

/// One of the cached workload's fixed keys.
struct CachedKey {
  enum Type { kPredict, kSimilar, kNearest, kTopic } type;
  std::string line;
  int topic = 0;       ///< NEAREST / TOPIC.
  std::string method;  ///< NEAREST.
};

/// Draws keys: the query type by a fixed mix, then a key of that type by
/// a Zipf law over the type's keys.
class ZipfMix {
 public:
  ZipfMix(const std::vector<CachedKey>& keys, uint64_t seed) : rng_(seed) {
    for (size_t i = 0; i < keys.size(); ++i) by_type_[keys[i].type].push_back(i);
    for (auto& [type, ids] : by_type_) {
      std::shuffle(ids.begin(), ids.end(), rng_);
      std::vector<double> cdf;
      double total = 0.0;
      for (size_t r = 0; r < ids.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf.push_back(total);
      }
      for (double& c : cdf) c /= total;
      cdf_[type] = std::move(cdf);
    }
  }
  size_t Next() {
    // PREDICT 50%, SIMILAR 20%, NEAREST 15%, TOPIC 15%.
    const double u = unit_(rng_);
    const int type = u < 0.5 ? CachedKey::kPredict
                   : u < 0.7 ? CachedKey::kSimilar
                   : u < 0.85 ? CachedKey::kNearest
                              : CachedKey::kTopic;
    const auto& cdf = cdf_[type];
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), unit_(rng_)) - cdf.begin());
    return by_type_[type][std::min(r, cdf.size() - 1)];
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::map<int, std::vector<size_t>> by_type_;
  std::map<int, std::vector<double>> cdf_;
};

bool CheckKeyAnswer(const AnswerChecker& checker, const CachedKey& key,
                    const std::string& body, std::string* why) {
  switch (key.type) {
    case CachedKey::kPredict: return checker.CheckPredict(body, why);
    case CachedKey::kSimilar: return checker.CheckSimilar(body, why);
    case CachedKey::kNearest:
      return checker.CheckNearest(key.topic, key.method, body, why);
    case CachedKey::kTopic: return checker.CheckTopic(key.topic, body, why);
  }
  return false;
}

}  // namespace

int RunServe(const Args& args, bool cached) {
  ReserveGeneratorCpu();
  RunReport report;
  auto corpus_or = ReadDataset(args.work_dir + "/dataset.txt");
  auto model_or = texrheo::core::ReadModelBinary(args.work_dir + "/model");
  if (!corpus_or.ok() || !model_or.ok()) {
    std::fprintf(stderr, "perfbench: cannot read the trained model: %s %s\n",
                 corpus_or.status().ToString().c_str(),
                 model_or.status().ToString().c_str());
    return 1;
  }
  const texrheo::recipe::Dataset corpus = std::move(corpus_or).value();
  const texrheo::core::ModelSnapshot model = std::move(model_or).value();
  AnswerChecker checker(model, /*dictionary_vocab=*/true);
  const int num_topics = checker.num_topics();

  StackOptions options;
  options.pack_idx = args.work_dir + "/model.idx";
  options.corpus = &corpus;
  options.replicas = cached ? 3 : 1;
  options.router = cached;
  std::unique_ptr<Stack> stack =
      StartRepeatedly(options, kSetupReps, nullptr, args, &report);
  if (stack == nullptr) {
    report.Print();
    return 0;
  }
  std::vector<int> fds = ConnectAll(stack->front_port(), kConnections);
  if (!report.Check(!fds.empty(), "connect to the front server")) {
    report.Print();
    return 0;
  }

  QueryMaker maker(&corpus, SubSeed(args.seed, 10));
  const double rate = cached ? kCachedRate : kUncachedRate;

  // serve-cached: the fixed key set, each key answered once (a miss that
  // fills a replica cache) and checked against the benchmark's own
  // computations before any load runs.
  std::vector<CachedKey> keys;
  std::vector<std::string> first_answer;
  std::vector<size_t> sent_keys;  ///< Key of every request, in order.
  std::unique_ptr<ZipfMix> mix;
  if (cached) {
    for (size_t i = 0; i < kPredictKeys; ++i) {
      keys.push_back({CachedKey::kPredict, maker.Next().PredictLine()});
    }
    for (size_t i = 0; i < kSimilarKeys; ++i) {
      keys.push_back({CachedKey::kSimilar, maker.Next().SimilarLine()});
    }
    for (int k = 0; k < num_topics; ++k) {
      for (const char* method : kNearestMethods) {
        keys.push_back({CachedKey::kNearest,
                        "NEAREST " + std::to_string(k) + " method=" + method, k,
                        method});
      }
      keys.push_back({CachedKey::kTopic, "TOPIC " + std::to_string(k), k});
    }
    SyncClient client(stack->front_port());
    for (const CachedKey& key : keys) {
      first_answer.push_back(client.RoundTrip(key.line));
      ++report.attempted;
      std::string why;
      if (!first_answer.back().empty() && first_answer.back()[0] == 'E') {
        ++report.failed;
      }
      report.Check(CheckKeyAnswer(checker, key, first_answer.back(), &why), why);
    }
    mix = std::make_unique<ZipfMix>(keys, SubSeed(args.seed, 11));
  }
  LineSource lines = [&](size_t) -> std::string {
    if (!cached) return maker.Next().PredictLine();
    sent_keys.push_back(mix->Next());
    return keys[sent_keys.back()].line;
  };

  // Warm-up, then the measured open loop.
  CountPhase(OpenLoop(fds, lines, rate, args.seconds * kWarmupShare, false),
             &report);
  sent_keys.clear();
  const EngineTotals before = Totals(*stack);
  const CpuTicks ticks_before = ReadCpuTicks();
  PhaseResult measured =
      OpenLoop(fds, lines, rate, args.seconds * kOpenLoopShare, true);
  report.detail["box_steal_share"] = StealShare(ticks_before, ReadCpuTicks());
  const EngineTotals after = Totals(*stack);
  CountPhase(measured, &report);
  ReportLatency(measured, &report);
  const std::vector<size_t> measured_keys = sent_keys;

  // Every answer kept is checked: uncached ones are misses that pass the
  // PREDICT checks; cached ones equal the miss that filled the cache.
  size_t repeats = 0;
  std::vector<bool> seen(keys.size(), false);
  for (size_t i = 0; i < measured.responses.size(); ++i) {
    const std::string& body = measured.responses[i];
    if (body.empty() || body[0] != 'O') continue;  // Counted as failed.
    std::string why;
    if (!cached) {
      if (!checker.CheckPredict(body, &why) ||
          body.find(" cached=0") == std::string::npos) {
        report.Check(false, why.empty() ? "uncached query hit: " + body : why);
        break;
      }
      continue;
    }
    const size_t k = measured_keys[i];
    repeats += seen[k] ? 1 : 0;
    seen[k] = true;
    if (WithoutCachedFlag(body) != WithoutCachedFlag(first_answer[k])) {
      report.Check(false, "answer for '" + keys[k].line + "' changed: " +
                              first_answer[k] + " -> " + body);
      break;
    }
  }
  report.detail["repeated_key_share"] =
      measured.responses.empty()
          ? 0.0
          : static_cast<double>(repeats) /
                static_cast<double>(measured.responses.size());

  // Saturation: a fixed number of requests outstanding per connection.
  PhaseResult saturation = Saturate(fds, lines, 0, kSaturationWindow,
                                    args.seconds * kSaturationShare, 0.2);
  CountPhase(saturation, &report);
  report.Set("serve.throughput_qps", saturation.throughput, "1/s");
  CloseAll(fds);

  // NEAREST and TOPIC through the router equal the owning replica's answer.
  if (cached) {
    std::vector<std::string> fixed;
    for (const CachedKey& key : keys) {
      if (key.type == CachedKey::kNearest || key.type == CachedKey::kTopic) {
        fixed.push_back(key.line);
      }
    }
    CompareRouterWithReplicas(*stack, fixed, args.trace, &report);
  }

  if (args.trace) {
    serve::QueryEngine* engine = stack->engine(0);
    const double lookups = static_cast<double>(after.lookups - before.lookups);
    report.Set("serve.cache_hit_ratio",
               lookups == 0.0 ? 0.0 : (after.hits - before.hits) / lookups,
               "ratio");
    report.Set("serve.batch_fill",
               after.batches == before.batches
                   ? 0.0
                   : static_cast<double>(after.jobs - before.jobs) /
                         static_cast<double>(after.batches - before.batches),
               "jobs/batch");

    // The workload's own uncached queries, folded in directly.
    const size_t n = static_cast<size_t>(rate * args.seconds * 0.15);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) specs.push_back(maker.Next());
    auto snapshot = engine->snapshot();
    texrheo::Rng rng(SubSeed(args.seed, 12));
    const auto fold_in = TimeEach(
        [&](size_t i) {
          std::vector<int32_t> ids;
          for (const auto& t : specs[i].terms) ids.push_back(snapshot->WordId(t));
          const auto q = specs[i].ToQuery();
          return snapshot
              ->FoldInTheta(ids,
                            texrheo::recipe::ToFeature(q.gel_concentration,
                                                       engine->config().feature),
                            engine->config().fold_in_sweeps,
                            engine->config().alpha, rng)
              .ok();
        },
        n);
    // PredictTexture in process at the workload's offered rate.
    std::vector<QuerySpec> fresh;
    for (size_t i = 0; i < n; ++i) fresh.push_back(maker.Next());
    const auto predict = InProcessOpenLoop(
        [&](size_t i) { return engine->PredictTexture(fresh[i].ToQuery()).ok(); },
        n, rate, kConnections);
    CountTimed(fold_in, &report);
    CountTimed(predict, &report);
    report.Set("serve.fold_in_us", Median(fold_in), "us");
    report.Set("serve.predict_us", Median(predict), "us");
    report.Set("serve.batcher_hop_us", Median(predict) - Median(fold_in), "us");

    // The same line mix through the owning replica's protocol handler, in
    // process and at the same rate: the wire adds the rest.
    std::vector<std::string> mix_lines;
    std::vector<int> owners;
    for (size_t i = 0; i < n; ++i) {
      mix_lines.push_back(cached ? keys[mix->Next()].line
                                 : maker.Next().PredictLine());
      owners.push_back(cached ? stack->router()->CandidatesFor(mix_lines.back()).at(0)
                              : 0);
    }
    const auto handled = InProcessOpenLoop(
        [&](size_t i) {
          bool quit = false;
          return stack->replica_server(owners[i])
                     ->HandleCommand(mix_lines[i], &quit)
                     .rfind("OK", 0) == 0;
        },
        n, rate, kConnections);
    CountTimed(handled, &report);
    report.Set("serve.wire_overhead_us",
               report.metrics["latency_p50_us"].first - Median(handled), "us");

    // Per query type, in process, sequentially.
    std::vector<QuerySpec> warm(fresh.begin(), fresh.begin() + std::min<size_t>(100, n));
    for (const auto& q : warm) {
      (void)engine->PredictTexture(q.ToQuery());
      (void)engine->SimilarRecipes(q.ToQuery());
    }
    const size_t reps = 2000;
    auto per_type = [&](const char* name,
                        const std::function<bool(size_t)>& op) {
      const std::vector<double> us = TimeEach(op, reps);
      CountTimed(us, &report);
      report.Set(name, Median(us), "us");
    };
    per_type("serve.cached_predict_us", [&](size_t i) {
      return engine->PredictTexture(warm[i % warm.size()].ToQuery()).ok();
    });
    per_type("serve.similar_us", [&](size_t i) {
      return engine->SimilarRecipes(warm[i % warm.size()].ToQuery()).ok();
    });
    per_type("serve.nearest_us", [&](size_t i) {
      return engine->NearestRheology(static_cast<int>(i) % num_topics).ok();
    });
    per_type("serve.topic_us", [&](size_t i) {
      return engine->TopicCard(static_cast<int>(i) % num_topics).ok();
    });
  }

  ReloadCycles(options.pack_idx, stack->front_port(),
               cached ? "ROLLING_RELOAD" : "RELOAD",
               [&] { return maker.Next().PredictLine(); }, kReloadCycles,
               &report);
  stack.reset();
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return 0;
}

}  // namespace perfbench
