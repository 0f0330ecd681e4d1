// Reference computations the benchmark checks the program's outputs
// against. They are written here from the paper's definitions and share no
// code with the program, so a fault in the program cannot also hide in its
// own check.
#ifndef PERFBENCH_INDEPENDENT_H_
#define PERFBENCH_INDEPENDENT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Normalized mutual information I(a; b) / sqrt(H(a) H(b)) of two labelings
/// of the same items (0 when either labeling is constant).
double Nmi(const std::vector<int>& a, const std::vector<int>& b);

/// The paper's information-quantity transform, -log(max(x, epsilon)).
std::vector<double> InformationQuantity(std::span<const double> ratios,
                                        double epsilon);

/// Closed-form KL( N(x, sigma^2 I) || N(mu, Lambda^-1) ) for a row-major
/// d x d precision Lambda.
double GaussianKl(std::span<const double> x, double sigma,
                  std::span<const double> mu,
                  std::span<const double> precision);

/// Squared Mahalanobis distance (x - mu)^T Lambda (x - mu).
double Mahalanobis2(std::span<const double> x, std::span<const double> mu,
                    std::span<const double> precision);

/// -log N(x; mu, Lambda^-1).
double NegLogDensity(std::span<const double> x, std::span<const double> mu,
                     std::span<const double> precision);

/// Ids of the `n` largest entries of `row`, largest first, ties by id.
std::vector<size_t> TopIds(std::span<const double> row, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_INDEPENDENT_H_
