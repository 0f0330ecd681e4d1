// ingest-refresh: restart over a pre-filled WAL, then a fixed-rate record
// stream (a fixed share redelivered) beside a fixed-rate query stream
// through the router, with a fixed number of refresh cycles.
#ifndef PERFBENCH_INGEST_REFRESH_H_
#define PERFBENCH_INGEST_REFRESH_H_

#include "eval/experiment.h"
#include "measure.h"
#include "util/status.h"

namespace perfbench {

/// Writes the WAL the workload restarts over: kPrefillRecords acknowledged
/// records from the drifting stream, ingested by a service over the freshly
/// trained model. Runs in the training process.
texrheo::Status PrefillWal(const Args& args,
                           texrheo::eval::ExperimentResult& trained);

/// Runs the workload over the model, dataset and WAL in args.work_dir and
/// prints its report. Returns the process exit code.
int RunIngestRefresh(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_INGEST_REFRESH_H_
