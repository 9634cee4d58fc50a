#include "nn/linear.h"

#include "nn/kernels/kernels.h"

namespace emd {

Linear::Linear(int in_dim, int out_dim, Rng* rng, std::string name)
    : name_(std::move(name)),
      w_(in_dim, out_dim),
      b_(1, out_dim),
      dw_(in_dim, out_dim),
      db_(1, out_dim) {
  w_.InitXavier(rng);
}

Mat Linear::Forward(const Mat& x) {
  Mat y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Mat& x, Mat* out) {
  x_cache_ = x;
  Apply(x, out);
}

void Linear::Apply(const Mat& x, Mat* out, bool relu) const {
  EMD_CHECK_EQ(x.cols(), w_.rows());
  EMD_CHECK(out != &x);
  out->Resize(x.rows(), w_.cols());
  kernels::Kernels().linear(x.data(), w_.data(), b_.data(), out->data(),
                            x.rows(), x.cols(), w_.cols(), relu);
}

void Linear::PrepareQuantized() { q_.Pack(w_, b_); }

void Linear::ApplyAuto(const Mat& x, QuantizedLinear::Scratch* qs, Mat* out,
                       bool relu) const {
  if (!q_.packed()) return Apply(x, out, relu);
  q_.Apply(x, qs, out);
  if (relu) {
    kernels::Kernels().relu(out->data(), out->data(), nullptr,
                            static_cast<int>(out->size()));
  }
}

Mat Linear::Backward(const Mat& dy) {
  EMD_CHECK_EQ(dy.cols(), w_.cols());
  EMD_CHECK_EQ(dy.rows(), x_cache_.rows());
  dw_.Add(MatMulAT(x_cache_, dy));
  db_.Add(SumRows(dy));
  return MatMulBT(dy, w_);
}

void Linear::CollectParams(ParamSet* params) {
  params->Register(name_ + ".w", &w_, &dw_);
  params->Register(name_ + ".b", &b_, &db_);
}

}  // namespace emd
