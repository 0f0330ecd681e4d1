#include "independent.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

namespace perfbench {

double Nmi(const std::vector<int>& a, const std::vector<int>& b) {
  const double n = static_cast<double>(a.size());
  if (a.empty() || a.size() != b.size()) return 0.0;
  std::map<int, double> ca, cb;
  std::map<std::pair<int, int>, double> joint;
  for (size_t i = 0; i < a.size(); ++i) {
    ca[a[i]] += 1.0;
    cb[b[i]] += 1.0;
    joint[{a[i], b[i]}] += 1.0;
  }
  auto entropy = [n](const std::map<int, double>& counts) {
    double h = 0.0;
    for (const auto& [label, c] : counts) h -= c / n * std::log(c / n);
    return h;
  };
  const double ha = entropy(ca);
  const double hb = entropy(cb);
  if (ha <= 0.0 || hb <= 0.0) return 0.0;
  double mi = 0.0;
  for (const auto& [labels, c] : joint) {
    mi += c / n * std::log(c * n / (ca[labels.first] * cb[labels.second]));
  }
  return mi / std::sqrt(ha * hb);
}

std::vector<double> InformationQuantity(std::span<const double> ratios,
                                        double epsilon) {
  std::vector<double> out(ratios.size());
  for (size_t i = 0; i < ratios.size(); ++i) {
    out[i] = -std::log(std::max(ratios[i], epsilon));
  }
  return out;
}

namespace {

/// log |det| of a square matrix by Gaussian elimination with partial
/// pivoting (a precision matrix is positive definite, so |det| = det).
double LogDet(std::vector<double> m, size_t d) {
  double log_det = 0.0;
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < d; ++r) {
      if (std::fabs(m[r * d + col]) > std::fabs(m[pivot * d + col])) {
        pivot = r;
      }
    }
    for (size_t c = 0; c < d; ++c) std::swap(m[col * d + c], m[pivot * d + c]);
    const double p = m[col * d + col];
    if (p == 0.0) return std::nan("");
    log_det += std::log(std::fabs(p));
    for (size_t r = col + 1; r < d; ++r) {
      const double f = m[r * d + col] / p;
      for (size_t c = col; c < d; ++c) m[r * d + c] -= f * m[col * d + c];
    }
  }
  return log_det;
}

}  // namespace

double Mahalanobis2(std::span<const double> x, std::span<const double> mu,
                    std::span<const double> precision) {
  const size_t d = x.size();
  double quad = 0.0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      quad += (x[i] - mu[i]) * precision[i * d + j] * (x[j] - mu[j]);
    }
  }
  return quad;
}

double NegLogDensity(std::span<const double> x, std::span<const double> mu,
                     std::span<const double> precision) {
  const size_t d = x.size();
  const double log_det_precision =
      LogDet(std::vector<double>(precision.begin(), precision.end()), d);
  return 0.5 * (Mahalanobis2(x, mu, precision) +
                static_cast<double>(d) * std::log(2.0 * M_PI) -
                log_det_precision);
}

double GaussianKl(std::span<const double> x, double sigma,
                  std::span<const double> mu,
                  std::span<const double> precision) {
  const size_t d = x.size();
  const double s2 = sigma * sigma;
  double trace = 0.0;
  for (size_t i = 0; i < d; ++i) trace += precision[i * d + i];
  const double quad = Mahalanobis2(x, mu, precision);
  const double log_det_precision =
      LogDet(std::vector<double>(precision.begin(), precision.end()), d);
  const double dd = static_cast<double>(d);
  // KL = 1/2 [ tr(Lambda S) + quad - d + ln det(Lambda^-1) - ln det(S) ],
  // S = sigma^2 I.
  return 0.5 * (s2 * trace + quad - dd - log_det_precision -
                dd * std::log(s2));
}

std::vector<size_t> TopIds(std::span<const double> row, size_t n) {
  std::vector<size_t> ids(row.size());
  std::iota(ids.begin(), ids.end(), size_t{0});
  std::stable_sort(ids.begin(), ids.end(), [&row](size_t a, size_t b) {
    return row[a] > row[b];
  });
  ids.resize(std::min(n, ids.size()));
  return ids;
}

}  // namespace perfbench
