#include "queries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>

#include "independent.h"
#include "recipe/ingredient.h"
#include "rheology/empirical_data.h"

namespace perfbench {

namespace recipe = texrheo::recipe;

namespace {

std::string Spec(const QuerySpec& q) {
  std::string spec;
  char buf[64];
  auto add = [&](const char* name, int units) {
    if (units <= 0) return;
    if (!spec.empty()) spec.push_back(',');
    std::snprintf(buf, sizeof(buf), "%s=%.4f", name, units * kQuantum);
    spec += buf;
  };
  for (size_t i = 0; i < q.gel.size(); ++i) {
    add(recipe::GelTypeName(static_cast<recipe::GelType>(i)), q.gel[i]);
  }
  for (size_t i = 0; i < q.emulsion.size(); ++i) {
    add(recipe::EmulsionTypeName(static_cast<recipe::EmulsionType>(i)),
        q.emulsion[i]);
  }
  if (spec.empty()) spec = "-";
  if (!q.terms.empty()) {
    spec += " terms=";
    for (size_t i = 0; i < q.terms.size(); ++i) {
      if (i > 0) spec.push_back(',');
      spec += q.terms[i];
    }
  }
  return spec;
}

std::string Key(const QuerySpec& q) {
  std::string key;
  for (int u : q.gel) key += std::to_string(u) + ",";
  key += "|";
  for (int u : q.emulsion) key += std::to_string(u) + ",";
  key += "|";
  for (const auto& t : q.terms) key += t + ",";
  return key;
}

/// key=value fields of a response line (the leading "OK" is skipped).
std::map<std::string, std::string> Fields(const std::string& body) {
  std::map<std::string, std::string> out;
  std::istringstream in(body);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string Fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

texrheo::serve::TextureQuery QuerySpec::ToQuery() const {
  texrheo::serve::TextureQuery q;
  q.gel_concentration = texrheo::math::Vector(gel.size());
  for (size_t i = 0; i < gel.size(); ++i) q.gel_concentration[i] = gel[i] * kQuantum;
  q.emulsion_concentration = texrheo::math::Vector(emulsion.size());
  for (size_t i = 0; i < emulsion.size(); ++i) {
    q.emulsion_concentration[i] = emulsion[i] * kQuantum;
  }
  q.texture_terms = terms;
  return q;
}

std::string QuerySpec::PredictLine() const { return "PREDICT " + Spec(*this); }
std::string QuerySpec::SimilarLine() const {
  return "SIMILAR " + Spec(*this) + " mode=kl";
}

QueryMaker::QueryMaker(const recipe::Dataset* corpus, uint64_t seed)
    : corpus_(corpus), rng_(seed) {}

QuerySpec QueryMaker::Draw() {
  const auto& docs = corpus_->documents;
  const auto& doc = docs[std::uniform_int_distribution<size_t>(
      0, docs.size() - 1)(rng_)];
  auto jitter = [this](double ratio, int spread) {
    int units = static_cast<int>(std::lround(ratio / kQuantum));
    if (units <= 0) return 0;
    units += std::uniform_int_distribution<int>(-spread, spread)(rng_);
    return std::clamp(units, 1, 10000);
  };
  QuerySpec q;
  for (size_t i = 0; i < doc.gel_concentration.size(); ++i) {
    q.gel.push_back(jitter(doc.gel_concentration[i], 3));
  }
  for (size_t i = 0; i < doc.emulsion_concentration.size(); ++i) {
    q.emulsion.push_back(jitter(doc.emulsion_concentration[i], 25));
  }
  std::vector<int32_t> ids = doc.term_ids;
  std::shuffle(ids.begin(), ids.end(), rng_);
  const size_t want = 1 + std::uniform_int_distribution<size_t>(0, 1)(rng_);
  for (int32_t id : ids) {
    const std::string& word = corpus_->term_vocab.WordOf(id);
    if (std::find(q.terms.begin(), q.terms.end(), word) == q.terms.end()) {
      q.terms.push_back(word);
    }
    if (q.terms.size() == want) break;
  }
  std::sort(q.terms.begin(), q.terms.end());
  return q;
}

QuerySpec QueryMaker::Next() {
  for (;;) {
    QuerySpec q = Draw();
    if (seen_.insert(Key(q)).second) return q;
  }
}

bool AnswerChecker::CheckPredict(const std::string& body,
                                 std::string* why) const {
  auto f = Fields(body);
  const int topic = TopicOf(body);
  if (body.rfind("OK ", 0) != 0 || topic < 0 || topic >= num_topics()) {
    *why = "PREDICT answer malformed or topic out of range: " + body;
    return false;
  }
  double sum = 0.0;
  for (const char* pole : {"hard", "soft", "elastic", "crumbly", "sticky", "dry"}) {
    auto it = f.find(pole);
    if (it == f.end()) {
      *why = std::string("PREDICT answer lacks ") + pole + ": " + body;
      return false;
    }
    const double mass = std::strtod(it->second.c_str(), nullptr);
    if (mass < 0.0 || mass > 1.0) {
      *why = "PREDICT mass out of [0, 1]: " + body;
      return false;
    }
    sum += mass;
  }
  // Six masses printed to 4 decimals: at most 6 * 5e-5 of rounding.
  if (sum > 1.0 + 3.5e-4 || (dictionary_vocab_ && sum < 1.0 - 3.5e-4)) {
    *why = "PREDICT category masses sum to " + std::to_string(sum) + ": " + body;
    return false;
  }
  return true;
}

bool AnswerChecker::CheckTopic(int k, const std::string& body,
                               std::string* why) const {
  auto f = Fields(body);
  const auto& phi = model_.estimates.phi[static_cast<size_t>(k)];
  std::string expected;
  for (size_t v : TopIds(phi, 8)) {
    if (!expected.empty()) expected.push_back(',');
    expected += model_.vocab.WordOf(static_cast<int32_t>(v)) + ":" + Fixed4(phi[v]);
  }
  const std::string count =
      std::to_string(model_.estimates.topic_recipe_count[static_cast<size_t>(k)]);
  if (TopicOf(body) != k || f["recipes"] != count || f["top"] != expected) {
    *why = "TOPIC " + std::to_string(k) + " answer " + body +
           " differs from the pack (recipes=" + count + " top=" + expected + ")";
    return false;
  }
  return true;
}

bool AnswerChecker::CheckNearest(int k, const std::string& method,
                                 const std::string& body,
                                 std::string* why) const {
  const auto& g = model_.estimates.gel_topics[static_cast<size_t>(k)];
  const size_t d = g.mean().size();
  std::vector<double> precision;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) precision.push_back(g.precision()(i, j));
  }
  const std::vector<double> mu = g.mean().data();
  std::map<int, double> score;  // Table-I id -> own divergence.
  std::vector<double> sorted;
  for (const auto& setting : texrheo::rheology::TableI()) {
    const std::vector<double> x = InformationQuantity(setting.gel.data(), 1e-4);
    double s = 0.0;
    if (method == "gaussian-kl") {
      s = GaussianKl(x, 0.25, mu, precision);
    } else if (method == "neg-log-density") {
      s = NegLogDensity(x, mu, precision);
    } else if (method == "mahalanobis") {
      s = Mahalanobis2(x, mu, precision);
    } else {
      for (size_t i = 0; i < d; ++i) s += (x[i] - mu[i]) * (x[i] - mu[i]);
      s = std::sqrt(s);
    }
    score[setting.id] = s;
    sorted.push_back(s);
  }
  std::sort(sorted.begin(), sorted.end());
  std::istringstream in(body);
  std::string token;
  in >> token;  // "OK"
  size_t rank = 0;
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-4 + 1e-6 * std::fabs(b);
  };
  while (in >> token) {
    if (token.rfind("setting=", 0) != 0) continue;
    const std::vector<std::string> parts = Split(token.substr(8), ':');
    if (parts.size() != 2 || rank >= sorted.size()) {
      *why = "NEAREST answer malformed: " + body;
      return false;
    }
    const int id = std::atoi(parts[0].c_str());
    const double div = std::strtod(parts[1].c_str(), nullptr);
    // Ties between settings may order either way; the divergence at each
    // rank and each named setting's own divergence must both agree.
    if (score.count(id) == 0 || !close(div, sorted[rank]) ||
        !close(div, score[id])) {
      *why = "NEAREST " + std::to_string(k) + " " + method + " rank " +
             std::to_string(rank) + " answer " + body +
             " disagrees with the benchmark's own divergence " +
             Fixed4(sorted[rank]);
      return false;
    }
    ++rank;
  }
  if (rank != std::min<size_t>(5, sorted.size())) {
    *why = "NEAREST answer has " + std::to_string(rank) + " rows: " + body;
    return false;
  }
  return true;
}

bool AnswerChecker::CheckSimilar(const std::string& body,
                                 std::string* why) const {
  auto f = Fields(body);
  const int topic = TopicOf(body);
  if (body.rfind("OK ", 0) != 0 || topic < 0 || topic >= num_topics() ||
      f["mode"] != "kl") {
    *why = "SIMILAR answer malformed: " + body;
    return false;
  }
  double last = -1e300;
  for (const std::string& item : Split(f["recipes"], ',')) {
    const std::vector<std::string> parts = Split(item, ':');
    const double div = parts.size() == 2 ? std::strtod(parts[1].c_str(), nullptr)
                                         : std::nan("");
    if (!(div >= last)) {
      *why = "SIMILAR recipes not nearest first: " + body;
      return false;
    }
    last = div;
  }
  return true;
}

std::string WithoutCachedFlag(const std::string& body) {
  std::string out = body;
  const size_t at = out.find(" cached=1");
  if (at != std::string::npos) out[at + 8] = '0';
  return out;
}

int TopicOf(const std::string& body) {
  const size_t at = body.find("topic=");
  if (at == std::string::npos) return -1;
  return std::atoi(body.c_str() + at + 6);
}

}  // namespace perfbench
