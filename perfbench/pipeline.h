// The paper-sized training pipeline as the benchmark drives it: untraced
// through eval::RunJointExperiment, traced through each module's public
// functions, plus the output checks and the dataset file that hands the
// trained corpus to a separate serving process.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "eval/experiment.h"
#include "recipe/dataset.h"
#include "util/status.h"

namespace perfbench {

/// DefaultExperimentConfig(1.0) with every seed taken from the benchmark
/// seed. A non-empty `checkpoint_dir` checkpoints the chain the way
/// texrheo_ingest does, so refreshes can warm-start from it.
texrheo::eval::ExperimentConfig PaperConfig(uint64_t seed,
                                            const std::string& checkpoint_dir);

/// Runs the pipeline and packs the model to `<pack_base>.dat/.idx`.
/// Returns the wall time of pipeline + pack. When `layers` is non-null the
/// run goes module by module and records per-layer metrics there.
texrheo::StatusOr<double> TrainAndPack(
    const texrheo::eval::ExperimentConfig& config, const std::string& pack_base,
    texrheo::eval::ExperimentResult* result, RunReport* layers);

/// NMI of the hard topic assignment against the generator's ground-truth
/// texture classes, computed by the benchmark's own code.
double TopicNmi(const texrheo::eval::ExperimentResult& result);

/// Output checks of the training pipeline (funnel shape, phi rows, NMI
/// against shuffled labels, Table-I links against the benchmark's own KL,
/// pack read back equals the estimates).
void CheckTraining(const texrheo::eval::ExperimentResult& result,
                   const texrheo::eval::ExperimentConfig& config,
                   const std::string& pack_base, uint64_t seed,
                   RunReport* report);

/// Writes / reads the model-ready dataset (documents and term vocabulary)
/// bit-exactly, so a serving process gets the trained corpus without
/// re-running the pipeline.
texrheo::Status WriteDataset(const texrheo::recipe::Dataset& dataset,
                             const std::string& path);
texrheo::StatusOr<texrheo::recipe::Dataset> ReadDataset(
    const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
