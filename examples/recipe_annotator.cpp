// Recipe annotator: the paper's end goal applied to one unseen recipe.
// Posted recipes rarely say what texture they produce; this tool predicts
// it from the ingredient list alone.
//
//   1. parse the ingredient quantities and compute concentration vectors,
//   2. place the recipe in the trained joint topic model's most likely
//      concentration topic,
//   3. report that topic's sensory texture terms plus the simulated
//      rheometer measurement (hardness / cohesiveness / adhesiveness).
//
// Run with the built-in demo recipe:
//   ./build/examples/recipe_annotator
// or annotate your own (name=quantity pairs), e.g.
//   --ingredients "gelatin=8 g;milk=300 cc;sugar=2 tbsp;water=150 cc"
// Train once and reuse the model:
//   ./build/examples/recipe_annotator --save model
//   ./build/examples/recipe_annotator --load model.idx --ingredients ...
// (--save writes the packed pair model.dat + model.idx; --load takes the
// .idx, the .dat, or the bare base path.)

#include <algorithm>
#include <cstdio>

#include "core/joint_topic_model.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "eval/experiment.h"
#include "recipe/features.h"
#include "rheology/rheometer.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace texrheo;

  FlagParser flags;
  (void)flags.Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("%s", "recipe_annotator: predict texture terms + rheology for a recipe.\nflags: --ingredients <name=qty;...> --scale <f> --save <path> --load <path>\n");
    return 0;
  }
  double scale = flags.GetDouble("scale", 0.1).value_or(0.1);
  std::string spec = flags.GetString(
      "ingredients", "gelatin=12 g;water=350 cc;sugar=1 tbsp");
  SetLogLevel(LogLevel::kWarning);

  // Parse the ingredient spec into a Recipe.
  recipe::Recipe query;
  query.id = 0;
  query.title = "(your recipe)";
  for (const std::string& part : Split(spec, ';')) {
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "malformed ingredient '%s' (want name=quantity)\n",
                   part.c_str());
      return 1;
    }
    query.ingredients.push_back(
        {std::string(Trim(part.substr(0, eq))),
         std::string(Trim(part.substr(eq + 1)))});
  }

  auto conc = recipe::ComputeConcentrations(
      query, recipe::IngredientDatabase::Embedded());
  if (!conc.ok()) {
    std::fprintf(stderr, "could not parse recipe: %s\n",
                 conc.status().ToString().c_str());
    return 1;
  }
  std::printf("recipe (%.0f g total):\n", conc->total_grams);
  for (const auto& line : query.ingredients) {
    std::printf("  %-14s %s\n", line.name.c_str(), line.quantity.c_str());
  }
  if (!conc->HasAnyGel()) {
    std::printf("no gelling agent found - this model only covers gel "
                "dishes (gelatin / kanten / agar)\n");
    return 0;
  }

  // Simulated rheometer measurement.
  auto measurement = rheology::SimulateDish(
      rheology::GelPhysicsModel::Calibrated(), conc->gel, conc->emulsion,
      rheology::RheometerConfig());
  if (measurement.ok()) {
    const auto& tpa = measurement->attributes;
    std::printf(
        "\nsimulated TPA: hardness %.2f RU, cohesiveness %.2f, "
        "adhesiveness %.2f\n",
        tpa.hardness, tpa.cohesiveness, tpa.adhesiveness);
  }

  // Obtain a trained model: load a snapshot when --load is given,
  // otherwise train from scratch (and optionally persist with --save).
  core::ModelSnapshot snapshot;
  std::string load_path = flags.GetString("load", "");
  if (!load_path.empty()) {
    auto loaded = core::ReadModelBinary(load_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    snapshot = std::move(loaded).value();
    std::printf("\nloaded model from %s (%d topics, %zu terms)\n",
                load_path.c_str(), snapshot.num_topics(),
                snapshot.vocab.size());
  } else {
    std::printf("\ntraining joint topic model (scale %.2f)...\n", scale);
    auto result =
        eval::RunJointExperiment(eval::DefaultExperimentConfig(scale));
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    snapshot =
        core::MakeSnapshot(result->estimates, result->dataset.term_vocab);
    std::string save_path = flags.GetString("save", "");
    if (!save_path.empty()) {
      Status saved = core::WriteModelBinary(snapshot, save_path);
      std::printf("%s\n", saved.ok()
                               ? ("saved model to " + save_path).c_str()
                               : saved.ToString().c_str());
    }
  }

  recipe::FeatureConfig fc;
  auto link =
      core::LinkConcentrationToTopic(snapshot.estimates, conc->gel, fc);
  if (!link.ok()) {
    std::fprintf(stderr, "topic inference failed: %s\n",
                 link.status().ToString().c_str());
    return 1;
  }
  std::printf("most similar topic: %d\n", link->topic);
  // Top terms of the inferred topic, straight from phi.
  const auto& phi_k =
      snapshot.estimates.phi[static_cast<size_t>(link->topic)];
  std::vector<size_t> order(phi_k.size());
  for (size_t v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(),
            [&phi_k](size_t a, size_t b) { return phi_k[a] > phi_k[b]; });
  std::printf("expected sensory texture terms:\n");
  for (size_t rank = 0; rank < order.size() && rank < 8; ++rank) {
    if (phi_k[order[rank]] < 0.02) break;
    const std::string& term =
        snapshot.vocab.WordOf(static_cast<int32_t>(order[rank]));
    const text::TextureTerm* entry =
        text::TextureDictionary::Embedded().Find(term);
    std::printf("  %-14s %.3f  (%s)\n", term.c_str(), phi_k[order[rank]],
                entry != nullptr ? entry->gloss.c_str() : "");
  }
  return 0;
}
