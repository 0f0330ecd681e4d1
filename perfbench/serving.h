// The serving workloads: serve-uncached (every PREDICT takes the eq.-5
// fold-in path on one engine) and serve-cached (a Zipf mix over a fixed
// key set, routed over three replicas, answered from their caches).
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include "measure.h"

namespace perfbench {

/// Runs one serving workload over the model trained into args.work_dir and
/// prints its report. Returns the process exit code.
int RunServe(const Args& args, bool cached);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
