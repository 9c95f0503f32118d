#pragma once

/// \file matrix.hpp
/// Small dense row-major matrix used by the MBR linear-regression solver.
/// The regression systems PEAK solves are tiny (a handful of components,
/// tens-to-hundreds of invocations), so a simple contiguous implementation
/// with bounds checks in debug builds is the right tool — no BLAS needed.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace peak::stats {

class Matrix {
public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      PEAK_CHECK(row.size() == cols_, "ragged initializer");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    PEAK_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double operator()(std::size_t r, std::size_t c) const {
    PEAK_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  /// Append one row (length cols()); the matrix grows by one row.
  void append_row(std::span<const double> row);

  /// A^T * A (cols x cols), used to form normal equations.
  [[nodiscard]] Matrix gram() const;

  /// A^T * y (length cols).
  [[nodiscard]] std::vector<double> transpose_times(
      const std::vector<double>& y) const;

  /// A * x (length rows).
  [[nodiscard]] std::vector<double> times(const std::vector<double>& x) const;

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Add the outer product row·rowᵀ to a running Gram matrix (cols x cols).
/// Each entry gains one term in the order gram() sums them, so adding every
/// row of A to a zero matrix gives exactly A.gram(), bit for bit.
void accumulate_gram(Matrix& gram, std::span<const double> row);

}  // namespace peak::stats
