#pragma once

/// \file regression.hpp
/// Linear least squares for MBR (paper Section 2.3, Eq. 3): given the
/// component-count matrix C and the invocation-time vector Y, solve
/// Y ≈ T·C for the component-time vector T.
///
/// The solver uses Householder QR on the design matrix, which is stable for
/// the poorly scaled systems that arise when one component count dwarfs the
/// constant component (e.g. loop trip counts in the thousands against a
/// constant column of ones). Rank deficiency is detected from the R diagonal
/// and surfaced to the caller — the MBR rater responds by merging the
/// offending components.

#include <cstddef>
#include <optional>
#include <vector>

#include "stats/matrix.hpp"

namespace peak::stats {

struct RegressionResult {
  /// Fitted coefficients (component times T_i). Empty if the fit failed.
  std::vector<double> coefficients;
  /// Sum of squared residuals, Σ (y - ŷ)².
  double ss_residual = 0.0;
  /// Total sum of squares about the mean, Σ (y - ȳ)².
  double ss_total = 0.0;
  /// Raw energy Σ y², kept to detect the degenerate all-equal-y case.
  double ss_y = 0.0;
  /// Numerical rank detected during factorization.
  std::size_t rank = 0;
  bool ok = false;

  /// The paper's MBR VAR: residual sum of squares over total sum of squares
  /// of the TS execution times (Section 3, item 2). 0 = perfect fit.
  /// When the observations are (numerically) identical, both sums are
  /// rounding residue and the fit is trivially perfect.
  [[nodiscard]] double var_ratio() const {
    if (ss_total <= 1e-18 * ss_y) return 0.0;
    return ss_residual / ss_total;
  }

  /// Conventional R².
  [[nodiscard]] double r_squared() const { return 1.0 - var_ratio(); }
};

/// Solve min_x ||A x - y||₂ via Householder QR.
///
/// \param design rows = observations (TS invocations), cols = predictors
///   (components). \param y observation vector, y.size() == design.rows().
/// \param rank_tolerance relative tolerance on R's diagonal for rank
///   detection.
RegressionResult least_squares(const Matrix& design,
                               const std::vector<double>& y,
                               double rank_tolerance = 1e-10);

/// Inverse of the Gram matrix (AᵀA)⁻¹ of a design matrix — the kernel of
/// coefficient covariance: Var(x̂) = σ²·(AᵀA)⁻¹ with σ² = SSres/(m-n).
/// Returns nullopt when AᵀA is singular. Intended for the tiny systems MBR
/// produces (n ≤ ~8); uses Gauss-Jordan with partial pivoting.
std::optional<Matrix> gram_inverse(const Matrix& design);

/// gram_inverse() from an already-formed Gram matrix AᵀA.
std::optional<Matrix> invert_gram(Matrix gram);

/// Standard error of a linear functional cᵀx̂ of the fitted coefficients.
/// Returns a negative value when the covariance is unavailable.
double functional_std_error(const Matrix& design,
                            const RegressionResult& fit,
                            const std::vector<double>& weights);

/// functional_std_error() for a design of `rows` observations given by
/// its Gram matrix AᵀA, which a caller adding one row at a time can keep
/// current with accumulate_gram().
double functional_std_error_from_gram(const Matrix& gram, std::size_t rows,
                                      const RegressionResult& fit,
                                      const std::vector<double>& weights);

/// Fit with non-negativity clamping: component times are physical durations
/// and must be >= 0. Negative coefficients (which arise from noise when a
/// component is nearly redundant) are clamped to zero and the remaining
/// columns re-fit. This is a simple active-set pass, sufficient for the
/// small, well-posed systems MBR produces.
RegressionResult least_squares_nonneg(const Matrix& design,
                                      const std::vector<double>& y);

}  // namespace peak::stats
