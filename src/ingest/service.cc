#include "ingest/service.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "recipe/features.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace texrheo::ingest {

namespace {

namespace fs = std::filesystem;

constexpr char kDeltaCorpusFile[] = "delta-corpus.txt";
constexpr char kDeltaCorpusHeader[] = "texrheo-delta-corpus v1";

}  // namespace

IngestService::IngestService(const IngestServiceConfig& config,
                             serve::QueryEngine* engine,
                             const recipe::Dataset* base_corpus, FileOps& ops)
    : config_(config), engine_(engine), base_corpus_(base_corpus), ops_(ops) {
  reload_cb_ = [this](const std::string& path) {
    return engine_->ReloadFromFile(path);
  };
  obs::MetricsRegistry* m = engine_->metrics();
  // Pipeline order: a record increments accepted, then deduped, then
  // folded, and snapshots read in reverse registration order — so
  // accepted >= deduped >= folded in every METRICSZ page.
  accepted_ = m->RegisterCounter("ingest.records.accepted");
  deduped_ = m->RegisterCounter("ingest.records.deduped");
  folded_ = m->RegisterCounter("ingest.records.folded");
  fold_failed_ = m->RegisterCounter("ingest.records.fold_failed");
  recovered_ = m->RegisterCounter("ingest.records.recovered");
  wal_appends_ = m->RegisterCounter("ingest.wal.appends");
  wal_rotations_ = m->RegisterCounter("ingest.wal.rotations");
  wal_segments_removed_ = m->RegisterCounter("ingest.wal.segments_removed");
  // attempts first: attempts >= failures and attempts >= success hold in
  // any snapshot.
  refresh_attempts_ = m->RegisterCounter("ingest.refresh.attempts");
  refresh_failures_ = m->RegisterCounter("ingest.refresh.failures");
  refresh_success_ = m->RegisterCounter("ingest.refresh.success");
  wal_segments_ = m->RegisterGauge("ingest.wal.segments");
  wal_open_bytes_ = m->RegisterGauge("ingest.wal.open_bytes");
  wal_next_sequence_ = m->RegisterGauge("ingest.wal.next_sequence");
  live_gauge_ = m->RegisterGauge("ingest.delta.live");
  absorbed_gauge_ = m->RegisterGauge("ingest.delta.absorbed");
}

StatusOr<std::unique_ptr<IngestService>> IngestService::Create(
    const IngestServiceConfig& config, serve::QueryEngine* engine,
    const recipe::Dataset* base_corpus, FileOps& ops) {
  if (engine == nullptr) {
    return Status::InvalidArgument("ingest: engine must not be null");
  }
  if (config.wal_dir.empty()) {
    return Status::InvalidArgument("ingest: wal_dir must be set");
  }
  std::unique_ptr<IngestService> service(
      new IngestService(config, engine, base_corpus, ops));
  WalOptions wal_options;
  wal_options.dir = config.wal_dir;
  wal_options.segment_bytes = config.wal_segment_bytes;
  TEXRHEO_ASSIGN_OR_RETURN(service->wal_,
                           WriteAheadLog::Open(wal_options, ops));
  service->RefreshWalGauges();
  return service;
}

void IngestService::SetReloadCallback(
    std::function<Status(const std::string&)> cb) {
  reload_cb_ = std::move(cb);
}

int IngestService::FoldIntoEngine(const IngestRecord& record,
                                  uint64_t sequence) {
  engine_->NotePendingTerms(record.terms);
  auto topic_or = engine_->FoldInDelta(RecordToQuery(record), sequence);
  if (!topic_or.ok()) {
    fold_failed_->Increment();
    return -1;
  }
  return *topic_or;
}

void IngestService::RefreshWalGauges() {
  wal_segments_->Set(static_cast<double>(wal_->SegmentFiles().size()));
  wal_open_bytes_->Set(static_cast<double>(wal_->open_segment_bytes()));
  wal_next_sequence_->Set(static_cast<double>(wal_->next_sequence()));
}

Status IngestService::PersistDeltaCorpus() {
  std::string out = kDeltaCorpusHeader;
  out += " absorbed=" + std::to_string(absorbed_sequence_) +
         " count=" + std::to_string(absorbed_.size()) + "\n";
  for (const IngestRecord& record : absorbed_) {
    out += EncodeRecord(record);
    out += '\n';
  }
  return AtomicWriteFile(config_.wal_dir + "/" + kDeltaCorpusFile, out,
                         ops_);
}

Status IngestService::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  // 1. Delta corpus: records already absorbed into the served model. They
  //    rejoin the dedup index (redelivery of an absorbed recipe must still
  //    dedup) and the engine delta (so SIMILAR keeps ranking them).
  const std::string delta_path = config_.wal_dir + "/" + kDeltaCorpusFile;
  std::ifstream in(delta_path);
  if (in) {
    std::string header;
    std::getline(in, header);
    unsigned long long absorbed_seq = 0;
    unsigned long long count = 0;
    if (std::sscanf(header.c_str(),
                    "texrheo-delta-corpus v1 absorbed=%llu count=%llu",
                    &absorbed_seq, &count) != 2) {
      return Status::IOError("bad delta-corpus header: '" + header + "'");
    }
    absorbed_sequence_ = absorbed_seq;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      TEXRHEO_ASSIGN_OR_RETURN(IngestRecord record, DecodeRecord(line));
      dedup_.emplace(EncodeRecord(record), 0);
      absorbed_.push_back(std::move(record));
    }
    if (absorbed_.size() != count) {
      return Status::IOError(
          "delta corpus holds " + std::to_string(absorbed_.size()) +
          " records, header promised " + std::to_string(count));
    }
  }
  // 2. WAL: every acknowledged-but-not-absorbed record.
  TEXRHEO_ASSIGN_OR_RETURN(WalReplayResult replay,
                           ReplayWal(config_.wal_dir));
  for (WalRecord& wal_record : replay.records) {
    if (wal_record.sequence <= absorbed_sequence_) continue;
    TEXRHEO_ASSIGN_OR_RETURN(IngestRecord record,
                             DecodeRecord(wal_record.payload));
    std::string key = EncodeRecord(record);
    if (dedup_.find(key) != dedup_.end()) continue;
    dedup_.emplace(std::move(key), wal_record.sequence);
    live_.emplace(wal_record.sequence, std::move(record));
  }
  // 3. Fold everything back into the engine delta, absorbed first (their
  //    order is the model's document order), exactly once each.
  for (const IngestRecord& record : absorbed_) {
    FoldIntoEngine(record, 0);
  }
  for (const auto& [sequence, record] : live_) {
    FoldIntoEngine(record, sequence);
    recovered_->Increment();
  }
  live_gauge_->Set(static_cast<double>(live_.size()));
  absorbed_gauge_->Set(static_cast<double>(absorbed_.size()));
  RefreshWalGauges();
  return Status::OK();
}

StatusOr<IngestService::IngestResult> IngestService::Ingest(
    const IngestRecord& raw) {
  IngestRecord record = raw;
  CanonicalizeRecord(record);
  std::string key = EncodeRecord(record);

  std::unique_lock<std::mutex> lock(mu_);
  auto it = dedup_.find(key);
  if (it != dedup_.end()) {
    // Redelivery: the content is already durable (in the WAL or absorbed
    // into the model). Re-acknowledge idempotently, no second append.
    accepted_->Increment();
    IngestResult result;
    result.sequence = it->second;
    result.deduped = true;
    return result;
  }
  auto seq_or = wal_->Append(key);
  if (!seq_or.ok()) {
    RefreshWalGauges();
    return seq_or.status();  // Not acknowledged; client may retry.
  }
  const uint64_t sequence = *seq_or;
  // Durable from here on: the acknowledgement is safe to send even if
  // everything after this line is lost to a crash (Recover re-folds).
  accepted_->Increment();
  deduped_->Increment();
  dedup_.emplace(std::move(key), sequence);
  live_.emplace(sequence, record);
  wal_appends_->Increment();
  live_gauge_->Set(static_cast<double>(live_.size()));
  lock.unlock();
  RefreshWalGauges();

  IngestResult result;
  result.sequence = sequence;
  result.topic = FoldIntoEngine(record, sequence);
  if (result.topic >= 0) folded_->Increment();
  return result;
}

StatusOr<IngestService::RefreshOutcome> IngestService::Refresh() {
  if (!refresh_mu_.try_lock()) {
    return Status::Unavailable("a refresh cycle is already running");
  }
  std::lock_guard<std::mutex> lock(refresh_mu_, std::adopt_lock);
  refresh_attempts_->Increment();
  auto outcome = RefreshLocked();
  if (outcome.ok()) {
    refresh_success_->Increment();
  } else {
    refresh_failures_->Increment();
  }
  return outcome;
}

StatusOr<IngestService::RefreshOutcome> IngestService::RefreshWithRetry() {
  Rng rng(config_.refresh.backoff_seed);
  const int attempts = std::max(1, config_.refresh.max_attempts);
  Status last = Status::Internal("refresh: no attempts made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      double delay =
          BackoffDelayMillis(config_.refresh.backoff, attempt - 1, rng);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay));
    }
    auto outcome = Refresh();
    if (outcome.ok()) {
      outcome->attempts = attempt + 1;
      return outcome;
    }
    last = outcome.status();
  }
  return last;
}

StatusOr<IngestService::RefreshOutcome> IngestService::RefreshLocked() {
  obs::Tracer* tracer = config_.tracer;
  obs::TraceSpan cycle;
  if (tracer != nullptr) cycle = tracer->StartSpan("refresh_cycle");
  auto child = [&](const char* name) {
    return tracer != nullptr
               ? tracer->StartSpanWithParent(name, cycle.span_id())
               : obs::TraceSpan();
  };
  if (base_corpus_ == nullptr) {
    return Status::FailedPrecondition(
        "refresh: no base corpus attached to the ingest service");
  }
  const RefreshTrainConfig& refresh = config_.refresh;
  if (refresh.model_dir.empty()) {
    return Status::InvalidArgument("refresh: model_dir must be set");
  }

  // --- 1. Snapshot the accepted records -------------------------------
  std::vector<IngestRecord> absorbed_copy;
  std::vector<IngestRecord> fresh;
  uint64_t covered = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    absorbed_copy = absorbed_;
    fresh.reserve(live_.size());
    for (const auto& [sequence, record] : live_) fresh.push_back(record);
    covered = live_.empty() ? absorbed_sequence_ : live_.rbegin()->first;
  }

  // --- 2. Combined dataset: base corpus + absorbed + fresh -------------
  // The vocabulary is extended append-only (base ids first, then each new
  // term in first-seen order over the stable absorbed-then-fresh record
  // order), so every id in the latest checkpoint keeps its meaning and
  // the warm start's prefix validation passes.
  obs::TraceSpan build_span = child("build_dataset");
  recipe::Dataset combined;
  combined.term_vocab = base_corpus_->term_vocab;
  combined.documents = base_corpus_->documents;
  combined.funnel = base_corpus_->funnel;
  auto add_record = [&](const IngestRecord& record) {
    recipe::Document doc;
    doc.recipe_index = combined.documents.size();
    doc.term_ids.reserve(record.terms.size());
    for (const std::string& term : record.terms) {
      doc.term_ids.push_back(combined.term_vocab.Add(term));
    }
    doc.gel_concentration = record.gel;
    doc.emulsion_concentration = record.emulsion;
    doc.gel_feature = recipe::ToFeature(record.gel, refresh.feature);
    doc.emulsion_feature =
        recipe::ToFeature(record.emulsion, refresh.feature);
    combined.documents.push_back(std::move(doc));
  };
  for (const IngestRecord& record : absorbed_copy) add_record(record);
  for (const IngestRecord& record : fresh) add_record(record);
  build_span.End();

  // --- 3. Warm-start Gibbs from the latest checkpoint ------------------
  obs::TraceSpan train_span = child("train");
  core::JointTopicModelConfig train_config = refresh.train;
  TEXRHEO_ASSIGN_OR_RETURN(
      core::JointTopicModel model,
      core::JointTopicModel::Create(train_config, &combined));
  model.SetObservability(engine_->metrics(), tracer);
  int sweeps = refresh.refresh_sweeps;
  if (!train_config.checkpoint_dir.empty()) {
    auto checkpoint =
        core::LoadLatestValidCheckpoint(train_config.checkpoint_dir);
    if (checkpoint.ok()) {
      TEXRHEO_RETURN_IF_ERROR(model.WarmStartFromCheckpoint(*checkpoint));
    } else {
      // First refresh of a fresh deployment: no checkpoint yet, cold
      // start with the full schedule.
      sweeps = std::max(sweeps, train_config.sweeps);
    }
  }
  TEXRHEO_RETURN_IF_ERROR(model.RunSweeps(sweeps));
  TEXRHEO_RETURN_IF_ERROR(model.CheckNumericalHealth());
  if (!train_config.checkpoint_dir.empty()) {
    TEXRHEO_RETURN_IF_ERROR(model.WriteCheckpointNow());
  }
  train_span.End();

  // --- 4. Pack and verify the refreshed model --------------------------
  obs::TraceSpan pack_span = child("pack");
  std::error_code ec;
  fs::create_directories(refresh.model_dir, ec);
  if (ec) {
    return Status::Internal("refresh: cannot create '" + refresh.model_dir +
                            "': " + ec.message());
  }
  core::ModelSnapshot snapshot =
      core::MakeSnapshot(model.Estimate(), combined.term_vocab);
  ++refresh_count_;
  const std::string base =
      refresh.model_dir + "/model-r" + std::to_string(refresh_count_);
  TEXRHEO_RETURN_IF_ERROR(core::WriteModelBinary(snapshot, base, ops_));
  core::ModelBinaryPaths paths = core::ModelBinaryPathsFor(base);
  TEXRHEO_ASSIGN_OR_RETURN(
      std::shared_ptr<const serve::ServingSnapshot> verify,
      serve::ServingSnapshot::FromFile(paths.idx));
  pack_span.End();

  // --- 5. Publish (engine reload or router rolling reload) -------------
  obs::TraceSpan reload_span = child("reload");
  TEXRHEO_RETURN_IF_ERROR(reload_cb_(paths.idx));
  reload_span.End();

  // --- 6. Absorb covered records, persist, compact the WAL -------------
  obs::TraceSpan compact_span = child("compact");
  std::vector<IngestRecord> refold_absorbed;
  std::vector<std::pair<uint64_t, IngestRecord>> refold_live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = live_.begin();
         it != live_.end() && it->first <= covered;) {
      absorbed_.push_back(std::move(it->second));
      it = live_.erase(it);
    }
    if (covered > absorbed_sequence_) absorbed_sequence_ = covered;
    TEXRHEO_RETURN_IF_ERROR(PersistDeltaCorpus());
    refold_absorbed = absorbed_;
    for (const auto& [sequence, record] : live_) {
      refold_live.emplace_back(sequence, record);
    }
    live_gauge_->Set(static_cast<double>(live_.size()));
    absorbed_gauge_->Set(static_cast<double>(absorbed_.size()));
  }
  TEXRHEO_RETURN_IF_ERROR(wal_->SealAndRotate());
  wal_rotations_->Increment();
  TEXRHEO_ASSIGN_OR_RETURN(int removed, wal_->Compact(covered));
  if (removed > 0) {
    wal_segments_removed_->Increment(static_cast<uint64_t>(removed));
  }
  RefreshWalGauges();
  compact_span.End();

  // --- 7. Rebuild the engine delta against the new snapshot ------------
  // The reload dropped the old delta (the refreshed model absorbed those
  // recipes into its statistics); re-fold so they stay visible to SIMILAR,
  // plus any records that arrived after the covered high-water mark.
  obs::TraceSpan refold_span = child("refold");
  for (const IngestRecord& record : refold_absorbed) {
    FoldIntoEngine(record, 0);
  }
  for (const auto& [sequence, record] : refold_live) {
    FoldIntoEngine(record, sequence);
  }
  refold_span.End();

  RefreshOutcome outcome;
  outcome.fingerprint = verify->fingerprint();
  outcome.model_idx_path = paths.idx;
  outcome.covered_sequence = covered;
  outcome.trained_documents = combined.documents.size();
  outcome.vocab_size = combined.term_vocab.size();
  return outcome;
}

std::string IngestService::RenderIngestz() {
  RefreshWalGauges();
  serve::DeltaStats delta = engine_->GetDeltaStats();
  std::ostringstream out;
  out << "texrheo_ingest ingestz\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    out << "pipeline: accepted=" << accepted_->Value()
        << " deduped=" << deduped_->Value()
        << " folded=" << folded_->Value()
        << " fold_failed=" << fold_failed_->Value()
        << " recovered=" << recovered_->Value() << "\n";
    out << "wal: segments=" << static_cast<uint64_t>(wal_segments_->Value())
        << " open_bytes="
        << static_cast<uint64_t>(wal_open_bytes_->Value())
        << " next_sequence=" << wal_->next_sequence()
        << " appends=" << wal_appends_->Value() << "\n";
    out << "delta: live=" << live_.size()
        << " absorbed=" << absorbed_.size()
        << " absorbed_sequence=" << absorbed_sequence_ << "\n";
  }
  out << "refresh: attempts=" << refresh_attempts_->Value()
      << " success=" << refresh_success_->Value()
      << " failures=" << refresh_failures_->Value() << "\n";
  out << "engine: delta_docs=" << delta.delta_docs
      << " pending_terms=" << delta.pending_terms
      << " stale_vocab_queries=" << delta.stale_vocab_queries
      << " generation=" << delta.delta_generation << "\n";
  return out.str();
}

uint64_t IngestService::high_water_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.empty() ? absorbed_sequence_ : live_.rbegin()->first;
}

uint64_t IngestService::absorbed_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return absorbed_sequence_;
}

size_t IngestService::live_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t IngestService::absorbed_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return absorbed_.size();
}

// --- IngestCommandHandler -----------------------------------------------

std::string IngestCommandHandler::Handle(const std::string& line, bool* quit,
                                         serve::Deadline deadline) {
  (void)deadline;
  *quit = false;
  auto err = [](const Status& status) {
    return "ERR " + status.ToString();
  };
  std::vector<std::string> tokens = serve::SplitProtocolTokens(line);
  if (tokens.empty()) {
    return err(Status::InvalidArgument("empty command"));
  }
  const std::string& cmd = tokens[0];

  if (cmd == "PING") return "OK pong";
  if (cmd == "QUIT") {
    *quit = true;
    return "OK bye";
  }

  if (cmd == "INGEST") {
    auto query_or = serve::ParseQueryCommand(tokens, nullptr);
    if (!query_or.ok()) return err(query_or.status());
    auto result_or = service_->Ingest(RecordFromQuery(*query_or));
    if (!result_or.ok()) return err(result_or.status());
    return "OK seq=" + std::to_string(result_or->sequence) +
           " dedup=" + (result_or->deduped ? std::string("1") : "0") +
           " topic=" + std::to_string(result_or->topic);
  }

  if (cmd == "REFRESH") {
    auto outcome_or = service_->RefreshWithRetry();
    if (!outcome_or.ok()) return err(outcome_or.status());
    char fp[16];
    std::snprintf(fp, sizeof(fp), "%08x", outcome_or->fingerprint);
    return std::string("OK refreshed fingerprint=") + fp +
           " covered=" + std::to_string(outcome_or->covered_sequence) +
           " documents=" + std::to_string(outcome_or->trained_documents) +
           " vocab=" + std::to_string(outcome_or->vocab_size) +
           " attempts=" + std::to_string(outcome_or->attempts);
  }

  if (cmd == "INGESTZ" || cmd == "STATSZ") {
    std::string stats = service_->RenderIngestz();
    if (!stats.empty() && stats.back() == '\n') stats.pop_back();
    return stats + "\n.";
  }

  if (cmd == "METRICSZ") return engine_->MetricszJson();

  return err(Status::InvalidArgument("unknown command '" + cmd + "'"));
}

}  // namespace texrheo::ingest
