#include "stats/matrix.hpp"

namespace peak::stats {

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      double sum = 0.0;
      for (std::size_t r = 0; r < rows_; ++r)
        sum += (*this)(r, i) * (*this)(r, j);
      g(i, j) = sum;
      g(j, i) = sum;
    }
  }
  return g;
}

void Matrix::append_row(std::span<const double> row) {
  PEAK_CHECK(row.size() == cols_, "row length must match the columns");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void accumulate_gram(Matrix& gram, std::span<const double> row) {
  const std::size_t n = row.size();
  PEAK_CHECK(gram.rows() == n && gram.cols() == n,
             "Gram matrix must be square in the row length");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double sum = gram(i, j) + row[i] * row[j];
      gram(i, j) = sum;
      gram(j, i) = sum;
    }
  }
}

std::vector<double> Matrix::transpose_times(
    const std::vector<double>& y) const {
  PEAK_CHECK(y.size() == rows_, "dimension mismatch in A^T y");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[c] += (*this)(r, c) * y[r];
  return out;
}

std::vector<double> Matrix::times(const std::vector<double>& x) const {
  PEAK_CHECK(x.size() == cols_, "dimension mismatch in A x");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += (*this)(r, c) * x[c];
    out[r] = sum;
  }
  return out;
}

}  // namespace peak::stats
