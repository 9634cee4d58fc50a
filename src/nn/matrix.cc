#include "nn/matrix.h"

#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace emd {

void Mat::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Mat::InitXavier(Rng* rng) {
  float limit = std::sqrt(6.f / static_cast<float>(rows_ + cols_));
  for (auto& x : data_) x = rng->NextFloat(-limit, limit);
}

void Mat::InitGaussian(Rng* rng, float stddev) {
  for (auto& x : data_) x = static_cast<float>(rng->NextGaussian()) * stddev;
}

void Mat::Add(const Mat& other) {
  EMD_CHECK(SameShape(other));
  kernels::Kernels().vadd(data(), other.data(), data(),
                          static_cast<int>(data_.size()));
}

void Mat::AddScaled(const Mat& other, float alpha) {
  EMD_CHECK(SameShape(other));
  kernels::Kernels().axpy(alpha, other.data(), data(),
                          static_cast<int>(data_.size()));
}

void Mat::Scale(float alpha) {
  kernels::Kernels().vscale(alpha, data(), static_cast<int>(data_.size()));
}

Mat Mat::RowCopy(int r) const {
  EMD_CHECK_GE(r, 0);
  EMD_CHECK_LT(r, rows_);
  Mat out(1, cols_);
  std::memcpy(out.data(), row(r), sizeof(float) * cols_);
  return out;
}

void Mat::SetRow(int r, const Mat& v) {
  EMD_CHECK_EQ(v.rows(), 1);
  EMD_CHECK_EQ(v.cols(), cols_);
  SetRow(r, v.data());
}

void Mat::SetRow(int r, const float* v) {
  EMD_CHECK_GE(r, 0);
  EMD_CHECK_LT(r, rows_);
  std::memcpy(row(r), v, sizeof(float) * cols_);
}

double Mat::SquaredNorm() const {
  double s = 0;
  for (float x : data_) s += double(x) * x;
  return s;
}

std::string Mat::DebugString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Mat[" << rows_ << "x" << cols_ << "]";
  for (int r = 0; r < std::min(rows_, max_rows); ++r) {
    os << "\n  ";
    for (int c = 0; c < std::min(cols_, max_cols); ++c) os << (*this)(r, c) << " ";
    if (cols_ > max_cols) os << "...";
  }
  if (rows_ > max_rows) os << "\n  ...";
  return os.str();
}

void MatMulInto(const Mat& a, const Mat& b, Mat* c) {
  EMD_CHECK_EQ(a.cols(), b.rows());
  EMD_CHECK(c != &a && c != &b);
  const int m = a.rows(), k = a.cols(), n = b.cols();
  c->Resize(m, n);
  // The kernel fully overwrites C (internal zero-init) — no Zero() needed.
  kernels::Kernels().matmul(a.data(), b.data(), c->data(), m, k, n);
}

Mat MatMul(const Mat& a, const Mat& b) {
  Mat c;
  MatMulInto(a, b, &c);
  return c;
}

void MatMulBTInto(const Mat& a, const Mat& b, Mat* c) {
  EMD_CHECK_EQ(a.cols(), b.cols());
  EMD_CHECK(c != &a && c != &b);
  const int m = a.rows(), k = a.cols(), n = b.rows();
  c->Resize(m, n);
  kernels::Kernels().matmul_bt(a.data(), b.data(), c->data(), m, k, n);
}

Mat MatMulBT(const Mat& a, const Mat& b) {
  Mat c;
  MatMulBTInto(a, b, &c);
  return c;
}

void MatMulATInto(const Mat& a, const Mat& b, Mat* c) {
  EMD_CHECK_EQ(a.rows(), b.rows());
  EMD_CHECK(c != &a && c != &b);
  const int k = a.rows(), m = a.cols(), n = b.cols();
  c->Resize(m, n);
  kernels::Kernels().matmul_at(a.data(), b.data(), c->data(), k, m, n);
}

Mat MatMulAT(const Mat& a, const Mat& b) {
  Mat c;
  MatMulATInto(a, b, &c);
  return c;
}

Mat Transpose(const Mat& a) {
  Mat t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  }
  return t;
}

Mat Hadamard(const Mat& a, const Mat& b) {
  EMD_CHECK(a.SameShape(b));
  Mat c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

Mat AddRowBroadcast(const Mat& a, const Mat& bias_row) {
  Mat c = a;
  AddRowBroadcastInPlace(&c, bias_row);
  return c;
}

void AddRowBroadcastInPlace(Mat* a, const Mat& bias_row) {
  EMD_CHECK_EQ(bias_row.rows(), 1);
  EMD_CHECK_EQ(bias_row.cols(), a->cols());
  const float* bias = bias_row.data();
  const auto& k = kernels::Kernels();
  for (int r = 0; r < a->rows(); ++r) k.axpy(1.f, bias, a->row(r), a->cols());
}

Mat SumRows(const Mat& a) {
  Mat s(1, a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int j = 0; j < a.cols(); ++j) s.data()[j] += arow[j];
  }
  return s;
}

Mat MeanRows(const Mat& a) {
  EMD_CHECK_GT(a.rows(), 0);
  Mat s = SumRows(a);
  s.Scale(1.f / static_cast<float>(a.rows()));
  return s;
}

Mat ConcatCols(const Mat& a, const Mat& b) {
  EMD_CHECK_EQ(a.rows(), b.rows());
  Mat c(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    std::memcpy(c.row(r), a.row(r), sizeof(float) * a.cols());
    std::memcpy(c.row(r) + a.cols(), b.row(r), sizeof(float) * b.cols());
  }
  return c;
}

Mat SliceCols(const Mat& a, int begin, int end) {
  EMD_CHECK_GE(begin, 0);
  EMD_CHECK_LE(begin, end);
  EMD_CHECK_LE(end, a.cols());
  Mat out(a.rows(), end - begin);
  for (int r = 0; r < a.rows(); ++r) {
    std::memcpy(out.row(r), a.row(r) + begin, sizeof(float) * (end - begin));
  }
  return out;
}

Mat StackRows(const std::vector<Mat>& rows) {
  EMD_CHECK(!rows.empty());
  int cols = rows[0].cols();
  Mat out(static_cast<int>(rows.size()), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    EMD_CHECK_EQ(rows[r].rows(), 1);
    EMD_CHECK_EQ(rows[r].cols(), cols);
    out.SetRow(static_cast<int>(r), rows[r].data());
  }
  return out;
}

double LogSumExp(const float* x, int n) {
  EMD_CHECK_GT(n, 0);
  return kernels::Kernels().logsumexp(x, n);
}

void SoftmaxRowsInPlace(Mat* a) {
  kernels::Kernels().softmax_rows(a->data(), a->rows(), a->cols());
}

float CosineSimilarity(const Mat& a, const Mat& b) {
  EMD_CHECK_EQ(a.size(), b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += double(a.data()[i]) * b.data()[i];
    na += double(a.data()[i]) * a.data()[i];
    nb += double(b.data()[i]) * b.data()[i];
  }
  if (na <= 0 || nb <= 0) return 0.f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

}  // namespace emd
