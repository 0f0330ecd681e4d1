// The serving side as a deployment starts it, driven only through the
// program's top-level entry points: ServingSnapshot::FromFile,
// QueryEngine::Create, LineProtocolServer, ReplicaRouter and, for the
// ingest workload, IngestService::Create + Recover.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "ingest/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/atomic_file.h"
#include "util/status.h"

namespace perfbench {

struct StackOptions {
  std::string pack_idx;
  const texrheo::recipe::Dataset* corpus = nullptr;
  int replicas = 1;
  /// Front the replicas with a ReplicaRouter behind its own server.
  bool router = false;
  /// Non-null: start an IngestService over replica 0 and recover its WAL.
  const texrheo::ingest::IngestServiceConfig* ingest = nullptr;
  texrheo::FileOps* ingest_file_ops = nullptr;  ///< Null = FileOps::Real().
};

/// Wall times of the start-up steps (milliseconds).
struct StackTimings {
  double load_ms = 0.0;           ///< ServingSnapshot::FromFile.
  double engine_create_ms = 0.0;  ///< One QueryEngine::Create (the first).
  double recover_ms = 0.0;        ///< IngestService::Recover.
};

class Stack {
 public:
  static texrheo::StatusOr<std::unique_ptr<Stack>> Start(
      const StackOptions& options, StackTimings* timings);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Port clients talk to: the router's server, else replica 0's.
  int front_port() const;
  int replica_port(int i) const { return replicas_[i].server->port(); }
  texrheo::serve::LineProtocolServer* replica_server(int i) const {
    return replicas_[i].server.get();
  }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  texrheo::serve::QueryEngine* engine(int i) const {
    return replicas_[i].engine.get();
  }
  texrheo::serve::ReplicaRouter* router() const { return router_.get(); }
  texrheo::ingest::IngestService* service() const { return service_.get(); }

 private:
  Stack() = default;

  /// One replica, configured as texrheo_serve configures its engine.
  struct Replica {
    std::shared_ptr<texrheo::obs::MetricsRegistry> metrics;
    std::unique_ptr<texrheo::obs::Tracer> tracer;
    std::unique_ptr<texrheo::serve::QueryEngine> engine;
    std::unique_ptr<texrheo::serve::LineProtocolServer> server;
  };
  std::vector<Replica> replicas_;
  std::unique_ptr<texrheo::serve::ReplicaRouter> router_;
  std::unique_ptr<texrheo::serve::LineProtocolServer> router_server_;
  std::unique_ptr<texrheo::ingest::IngestService> service_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
