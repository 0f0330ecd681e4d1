// texrheo_modelpack: inspect and verify a packed model (see
// core/model_binary.h). Packs are written by the trainers and the ingest
// refresh through core::WriteModelBinary.
//
//   texrheo_modelpack info   model.idx              # header + section table
//   texrheo_modelpack verify model.idx              # full CRC + structure

#include <cstdio>
#include <string>

#include "core/model_binary.h"
#include "util/csv.h"
#include "util/status.h"

namespace {

using texrheo::Status;
namespace core = texrheo::core;

int Usage() {
  std::fprintf(stderr,
               "usage: texrheo_modelpack info <model.idx>\n"
               "       texrheo_modelpack verify <model.idx>\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int Info(const std::string& idx_path) {
  core::ModelBinaryPaths paths = core::ModelBinaryPathsFor(idx_path);
  auto bytes = texrheo::ReadFileToString(paths.idx);
  if (!bytes.ok()) return Fail(bytes.status());
  auto index = core::ParseModelBinaryIndex(*bytes);
  if (!index.ok()) return Fail(index.status());
  std::printf("index:        %s\n", paths.idx.c_str());
  std::printf("data:         %s\n", paths.dat.c_str());
  std::printf("version:      %u\n", index->version);
  std::printf("topics:       %u\n", index->num_topics);
  std::printf("vocab:        %llu\n",
              static_cast<unsigned long long>(index->vocab_size));
  std::printf("gel dim:      %u\n", index->gel_dim);
  std::printf("emulsion dim: %u\n", index->emulsion_dim);
  std::printf("fingerprint:  %08x\n", index->fingerprint);
  std::printf("data bytes:   %llu\n",
              static_cast<unsigned long long>(index->data_file_size));
  // Legacy nine-section packs predate the embedding sections and stay
  // fully servable; say so explicitly instead of leaving a silent gap.
  bool has_embeddings = false;
  for (const core::ModelSectionEntry& entry : index->sections) {
    if (entry.id == static_cast<uint32_t>(core::ModelSection::kEmbedding)) {
      has_embeddings = true;
      std::printf("embeddings:   dim=%llu crc32=%08x\n",
                  static_cast<unsigned long long>(
                      index->vocab_size == 0 ? 0
                                             : entry.count / index->vocab_size),
                  entry.crc32);
    }
  }
  if (!has_embeddings) {
    std::printf("embeddings:   none (legacy nine-section pack)\n");
  }
  std::printf("%-20s %12s %12s %12s %10s\n", "section", "offset", "bytes",
              "count", "crc32");
  for (const core::ModelSectionEntry& entry : index->sections) {
    std::printf("%-20s %12llu %12llu %12llu   %08x\n",
                core::ModelSectionName(
                    static_cast<core::ModelSection>(entry.id)),
                static_cast<unsigned long long>(entry.offset),
                static_cast<unsigned long long>(entry.size),
                static_cast<unsigned long long>(entry.count), entry.crc32);
  }
  return 0;
}

int Verify(const std::string& idx_path) {
  // MappedModel::Open is the verifier: index frame + CRC, section table,
  // per-section CRC over the mapped data, vocabulary pool structure, and
  // (when present) embedding matrix/norm finiteness.
  auto mapped = core::MappedModel::Open(idx_path);
  if (!mapped.ok()) return Fail(mapped.status());
  std::printf("ok: %d topics, %zu words, fingerprint %08x, %zu data bytes\n",
              (*mapped)->num_topics(), (*mapped)->vocab_size(),
              (*mapped)->fingerprint(), (*mapped)->mapped_bytes());
  if ((*mapped)->has_embeddings()) {
    std::printf("ok: embeddings %zu x %zu\n", (*mapped)->vocab_size(),
                (*mapped)->embedding_dim());
  } else {
    std::printf("ok: no embedding sections (legacy pack)\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc != 3) return Usage();
  std::string command = argv[1];
  if (command == "info") return Info(argv[2]);
  if (command == "verify") return Verify(argv[2]);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
