// Mat: dense row-major float matrix — the tensor type of the from-scratch
// neural substrate. Sequence inputs are matrices with one row per time step.
//
// The substrate deliberately avoids autodiff: each layer implements explicit
// forward/backward passes, and tests gradient-check them against finite
// differences. Mat provides the shared linear algebra.

#ifndef EMD_NN_MATRIX_H_
#define EMD_NN_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace emd {

/// Dense row-major float matrix.
class Mat {
 public:
  Mat() : rows_(0), cols_(0) {}
  Mat(int rows, int cols) : rows_(rows), cols_(cols), data_(size_t(rows) * cols, 0.f) {
    EMD_CHECK_GE(rows, 0);
    EMD_CHECK_GE(cols, 0);
  }
  Mat(int rows, int cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    EMD_CHECK_EQ(data_.size(), size_t(rows) * cols);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    EMD_CHECK_GE(r, 0);
    EMD_CHECK_LT(r, rows_);
    EMD_CHECK_GE(c, 0);
    EMD_CHECK_LT(c, cols_);
    return data_[size_t(r) * cols_ + c];
  }
  float at(int r, int c) const {
    EMD_CHECK_GE(r, 0);
    EMD_CHECK_LT(r, rows_);
    EMD_CHECK_GE(c, 0);
    EMD_CHECK_LT(c, cols_);
    return data_[size_t(r) * cols_ + c];
  }

  /// Unchecked access for hot loops.
  float& operator()(int r, int c) { return data_[size_t(r) * cols_ + c]; }
  float operator()(int r, int c) const { return data_[size_t(r) * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + size_t(r) * cols_; }
  const float* row(int r) const { return data_.data() + size_t(r) * cols_; }

  void Fill(float v);
  void Zero() { Fill(0.f); }

  /// Reshapes to [rows, cols], reusing the existing allocation when it is
  /// large enough. Contents are unspecified afterwards — every *Into kernel
  /// overwrites its output completely. Lets hot paths (per-tweet forward
  /// passes) recycle output buffers instead of re-allocating each call.
  void Resize(int rows, int cols) {
    EMD_CHECK_GE(rows, 0);
    EMD_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(size_t(rows) * cols);
  }

  /// Xavier/Glorot uniform initialization.
  void InitXavier(Rng* rng);
  /// Gaussian initialization with the given standard deviation.
  void InitGaussian(Rng* rng, float stddev);

  /// this += other (same shape).
  void Add(const Mat& other);
  /// this += alpha * other (same shape).
  void AddScaled(const Mat& other, float alpha);
  /// this *= alpha.
  void Scale(float alpha);

  /// Returns a copy of row r as a 1 x cols matrix.
  Mat RowCopy(int r) const;
  /// Copies a 1 x cols matrix (or raw row) into row r.
  void SetRow(int r, const Mat& v);
  void SetRow(int r, const float* v);

  /// Sum of squares of all entries.
  double SquaredNorm() const;

  bool SameShape(const Mat& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  std::string DebugString(int max_rows = 6, int max_cols = 8) const;

 private:
  int rows_;
  int cols_;
  std::vector<float> data_;
};

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
Mat MatMul(const Mat& a, const Mat& b);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n].
Mat MatMulBT(const Mat& a, const Mat& b);

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n].
Mat MatMulAT(const Mat& a, const Mat& b);

/// Allocation-free variants: resize `c` and overwrite it with the product.
/// `c` must not alias either input. The forward paths of Linear / attention
/// route through these so repeated calls reuse one output buffer.
void MatMulInto(const Mat& a, const Mat& b, Mat* c);
void MatMulBTInto(const Mat& a, const Mat& b, Mat* c);
void MatMulATInto(const Mat& a, const Mat& b, Mat* c);

/// Transpose.
Mat Transpose(const Mat& a);

/// Elementwise product.
Mat Hadamard(const Mat& a, const Mat& b);

/// Adds a 1 x n bias row to every row of a [m,n] matrix.
Mat AddRowBroadcast(const Mat& a, const Mat& bias_row);

/// In-place variant: a += bias_row broadcast to every row.
void AddRowBroadcastInPlace(Mat* a, const Mat& bias_row);

/// Sums rows into a 1 x n matrix.
Mat SumRows(const Mat& a);

/// Mean of rows into a 1 x n matrix. a.rows() must be > 0.
Mat MeanRows(const Mat& a);

/// Concatenates horizontally: [m,n1] ++ [m,n2] -> [m,n1+n2].
Mat ConcatCols(const Mat& a, const Mat& b);

/// Splits columns: returns a[:, begin:end].
Mat SliceCols(const Mat& a, int begin, int end);

/// Stacks 1-row matrices vertically.
Mat StackRows(const std::vector<Mat>& rows);

/// Numerically stable log(sum(exp(x))) over a raw float span.
double LogSumExp(const float* x, int n);

/// In-place softmax over each row.
void SoftmaxRowsInPlace(Mat* a);

/// Cosine similarity between two 1 x n (or equal-shaped) matrices.
/// Returns 0 when either vector is all-zero.
float CosineSimilarity(const Mat& a, const Mat& b);

}  // namespace emd

#endif  // EMD_NN_MATRIX_H_
