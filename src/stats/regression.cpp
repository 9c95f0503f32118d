#include "stats/regression.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "support/check.hpp"

namespace peak::stats {

namespace {

/// In-place Householder QR of A (m x n, m >= rank). Returns the
/// transformed copy of y alongside R stored in the upper triangle of A.
struct QrState {
  Matrix a;                // holds R in the upper triangle after factorize
  std::vector<double> qty; // Q^T y
};

QrState householder_qr(Matrix a, std::vector<double> y) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = std::min(m, n);

  for (std::size_t k = 0; k < steps; ++k) {
    // Compute the norm of column k below (and including) row k.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    // Choose the reflection sign so a(k,k)/norm >= 0; the subsequent +1
    // then cannot cancel (standard JAMA/LINPACK convention).
    if (a(k, k) < 0.0) norm = -norm;

    // Householder vector v stored in place of column k (below diagonal).
    for (std::size_t i = k; i < m; ++i) a(i, k) /= norm;
    a(k, k) += 1.0;

    // Apply the reflector to remaining columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += a(i, k) * a(i, j);
      s = -s / a(k, k);
      for (std::size_t i = k; i < m; ++i) a(i, j) += s * a(i, k);
    }
    // Apply to y.
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += a(i, k) * y[i];
    s = -s / a(k, k);
    for (std::size_t i = k; i < m; ++i) y[i] += s * a(i, k);

    // Store the R diagonal entry (the reflector vector overwrote it).
    a(k, k) = -norm;
  }
  return {std::move(a), std::move(y)};
}

}  // namespace

RegressionResult least_squares(const Matrix& design,
                               const std::vector<double>& y,
                               double rank_tolerance) {
  RegressionResult result;
  const std::size_t m = design.rows();
  const std::size_t n = design.cols();
  PEAK_CHECK(y.size() == m, "y length must match design rows");
  if (m == 0 || n == 0 || m < n) return result;  // under-determined

  // A single NaN/Inf observation (a glitched timer, a corrupted counter)
  // would silently poison every coefficient; fail the fit instead, which
  // the MBR rater already treats as "not converged yet".
  for (double v : y)
    if (!std::isfinite(v)) return result;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (!std::isfinite(design(i, j))) return result;

  QrState qr = householder_qr(design, y);

  // Rank detection from |R_kk| relative to the largest diagonal entry.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    max_diag = std::max(max_diag, std::fabs(qr.a(k, k)));
  if (max_diag == 0.0) return result;
  std::size_t rank = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (std::fabs(qr.a(k, k)) > rank_tolerance * max_diag) ++rank;
  result.rank = rank;
  if (rank < n) return result;  // caller should merge components

  // Back substitution on R x = (Q^T y)[0..n).
  std::vector<double> x(n, 0.0);
  for (std::size_t ki = n; ki-- > 0;) {
    double s = qr.qty[ki];
    for (std::size_t j = ki + 1; j < n; ++j) s -= qr.a(ki, j) * x[j];
    x[ki] = s / qr.a(ki, ki);
  }

  // Residuals against the original system.
  const std::vector<double> fitted = design.times(x);
  double ss_res = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double r = y[i] - fitted[i];
    ss_res += r * r;
  }
  const double ybar = mean(y);
  double ss_tot = 0.0;
  double ss_y = 0.0;
  for (double v : y) {
    ss_tot += (v - ybar) * (v - ybar);
    ss_y += v * v;
  }

  result.coefficients = std::move(x);
  result.ss_residual = ss_res;
  result.ss_total = ss_tot;
  result.ss_y = ss_y;
  result.ok = true;
  return result;
}

std::optional<Matrix> gram_inverse(const Matrix& design) {
  return invert_gram(design.gram());
}

std::optional<Matrix> invert_gram(Matrix a) {
  const std::size_t n = a.cols();
  // Augment with the identity and run Gauss-Jordan with partial pivoting.
  Matrix inv(n, n);
  for (std::size_t i = 0; i < n; ++i) inv(i, i) = 1.0;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(a(r, col)) > std::fabs(a(pivot, col))) pivot = r;
    if (std::fabs(a(pivot, col)) < 1e-30) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a(pivot, c), a(col, c));
        std::swap(inv(pivot, c), inv(col, c));
      }
    }
    const double d = a(col, col);
    for (std::size_t c = 0; c < n; ++c) {
      a(col, c) /= d;
      inv(col, c) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a(r, col);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        a(r, c) -= f * a(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  return inv;
}

double functional_std_error(const Matrix& design,
                            const RegressionResult& fit,
                            const std::vector<double>& weights) {
  return functional_std_error_from_gram(design.gram(), design.rows(), fit,
                                        weights);
}

double functional_std_error_from_gram(const Matrix& gram, std::size_t rows,
                                      const RegressionResult& fit,
                                      const std::vector<double>& weights) {
  if (!fit.ok || rows <= gram.cols()) return -1.0;
  PEAK_CHECK(weights.size() == gram.cols(),
             "weight arity must match design columns");
  const std::optional<Matrix> ginv = invert_gram(gram);
  if (!ginv) return -1.0;
  const double sigma2 =
      fit.ss_residual / static_cast<double>(rows - gram.cols());
  double quad = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i)
    for (std::size_t j = 0; j < weights.size(); ++j)
      quad += weights[i] * (*ginv)(i, j) * weights[j];
  return quad >= 0.0 ? std::sqrt(sigma2 * quad) : -1.0;
}

RegressionResult least_squares_nonneg(const Matrix& design,
                                      const std::vector<double>& y) {
  const std::size_t n = design.cols();
  std::vector<bool> active(n, true);

  for (std::size_t pass = 0; pass <= n; ++pass) {
    // Build the reduced design with only active columns.
    std::vector<std::size_t> cols;
    for (std::size_t c = 0; c < n; ++c)
      if (active[c]) cols.push_back(c);
    if (cols.empty()) break;

    RegressionResult fit;
    if (cols.size() == n) {
      fit = least_squares(design, y);
    } else {
      Matrix reduced(design.rows(), cols.size());
      for (std::size_t r = 0; r < design.rows(); ++r)
        for (std::size_t ci = 0; ci < cols.size(); ++ci)
          reduced(r, ci) = design(r, cols[ci]);
      fit = least_squares(reduced, y);
    }
    if (!fit.ok) return fit;

    // Clamp the most negative coefficient, if any, and retry.
    std::size_t worst = cols.size();
    double worst_val = 0.0;
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      if (fit.coefficients[ci] < worst_val) {
        worst_val = fit.coefficients[ci];
        worst = ci;
      }
    }
    if (worst == cols.size()) {
      // All non-negative: expand back to full coefficient vector.
      RegressionResult full = fit;
      full.coefficients.assign(n, 0.0);
      for (std::size_t ci = 0; ci < cols.size(); ++ci)
        full.coefficients[cols[ci]] = fit.coefficients[ci];
      return full;
    }
    active[cols[worst]] = false;
  }

  return RegressionResult{};
}

}  // namespace peak::stats
