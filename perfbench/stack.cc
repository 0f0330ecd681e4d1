#include "stack.h"

#include <utility>

#include "bench_util.h"

namespace perfbench {

using texrheo::Status;
using texrheo::StatusOr;
namespace serve = texrheo::serve;

StatusOr<std::unique_ptr<Stack>> Stack::Start(const StackOptions& options,
                                              StackTimings* timings) {
  std::unique_ptr<Stack> stack(new Stack());
  Clock::time_point t = Clock::now();
  TEXRHEO_ASSIGN_OR_RETURN(
      std::shared_ptr<const serve::ServingSnapshot> snapshot,
      serve::ServingSnapshot::FromFile(options.pack_idx));
  timings->load_ms = SecondsSince(t) * 1e3;

  serve::RouterOptions router_options;
  stack->replicas_.resize(static_cast<size_t>(options.replicas));
  for (size_t i = 0; i < stack->replicas_.size(); ++i) {
    Replica& r = stack->replicas_[i];
    r.metrics = std::make_shared<texrheo::obs::MetricsRegistry>();
    r.tracer = std::make_unique<texrheo::obs::Tracer>(
        nullptr, texrheo::obs::Tracer::Options{0});
    r.tracer->ExportDurationsTo(r.metrics.get());
    serve::QueryEngineConfig config;
    config.num_threads = 0;
    config.metrics = r.metrics;
    config.tracer = r.tracer.get();
    t = Clock::now();
    TEXRHEO_ASSIGN_OR_RETURN(
        r.engine, serve::QueryEngine::Create(config, snapshot, options.corpus));
    if (i == 0) timings->engine_create_ms = SecondsSince(t) * 1e3;
    r.server = std::make_unique<serve::LineProtocolServer>(
        r.engine.get(), serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(r.server->Start());
    router_options.replicas.push_back({"127.0.0.1", r.server->port()});
  }
  if (options.router) {
    TEXRHEO_ASSIGN_OR_RETURN(stack->router_,
                             serve::ReplicaRouter::Create(router_options));
    TEXRHEO_RETURN_IF_ERROR(stack->router_->Start());
    stack->router_server_ = std::make_unique<serve::LineProtocolServer>(
        stack->router_.get(), stack->router_->metrics(),
        serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(stack->router_server_->Start());
  }
  if (options.ingest != nullptr) {
    texrheo::FileOps& ops = options.ingest_file_ops != nullptr
                                ? *options.ingest_file_ops
                                : texrheo::FileOps::Real();
    TEXRHEO_ASSIGN_OR_RETURN(
        stack->service_,
        texrheo::ingest::IngestService::Create(
            *options.ingest, stack->replicas_[0].engine.get(), options.corpus,
            ops));
    t = Clock::now();
    TEXRHEO_RETURN_IF_ERROR(stack->service_->Recover());
    timings->recover_ms = SecondsSince(t) * 1e3;
  }
  return stack;
}

Stack::~Stack() {
  if (router_server_ != nullptr) router_server_->Stop();
  if (router_ != nullptr) router_->Stop();
  service_.reset();
  for (Replica& r : replicas_) {
    if (r.server != nullptr) r.server->Stop();
  }
}

int Stack::front_port() const {
  return router_server_ != nullptr ? router_server_->port()
                                   : replicas_[0].server->port();
}

}  // namespace perfbench
