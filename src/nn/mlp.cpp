#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

namespace adsec {

Mlp::Mlp(std::vector<int> dims, Activation hidden_act, Rng& rng)
    : dims_(std::move(dims)), act_(hidden_act) {
  if (dims_.size() < 2) throw std::invalid_argument("Mlp: need at least in and out dims");
  for (std::size_t l = 0; l + 1 < dims_.size(); ++l) {
    const int fan_in = dims_[l];
    const double scale = 1.0 / std::sqrt(static_cast<double>(fan_in));
    weights_.push_back(Matrix::randn(dims_[l], dims_[l + 1], rng, scale));
    biases_.push_back(Matrix(1, dims_[l + 1]));
    w_grads_.push_back(Matrix(dims_[l], dims_[l + 1]));
    b_grads_.push_back(Matrix(1, dims_[l + 1]));
  }
}

const Matrix& Mlp::forward(const Matrix& x) {
  if (x.cols() != in_dim()) throw std::invalid_argument("Mlp::forward: input dim mismatch");
  const int L = num_layers();
  if (L == 0) {
    out_.copy_from(x);
    return out_;
  }
  in0_.copy_from(x);
  hiddens_.resize(static_cast<std::size_t>(L - 1));
  const Matrix* h = &in0_;
  for (int l = 0; l < L; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    const bool last = l + 1 == L;
    Matrix& dst = last ? out_ : hiddens_[ul];
    linear_forward_into(dst, *h, weights_[ul], biases_[ul],
                        last ? Activation::Identity : act_);
    h = &dst;
  }
  cached_ = true;
  return out_;
}

void Mlp::forward_inference_into(const Matrix& x, Matrix& out) const {
  if (x.cols() != in_dim()) throw std::invalid_argument("Mlp::forward_inference: dim mismatch");
  const int L = num_layers();
  if (L == 0) {
    out.copy_from(x);
    return;
  }
  Workspace& ws = inference_workspace();
  const Matrix* h = &x;
  Workspace::Lease held;
  for (int l = 0; l < L; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l + 1 == L) {
      linear_forward_into(out, *h, weights_[ul], biases_[ul]);
    } else {
      auto cur = ws.acquire(x.rows(), dims_[ul + 1]);
      linear_forward_into(*cur, *h, weights_[ul], biases_[ul], act_);
      h = &*cur;
      held = std::move(cur);  // drop the previous layer's scratch, keep this one
    }
  }
}

void Mlp::forward_inference_into(const Matrix& x, Matrix& out,
                                 std::vector<WeightPack>& packs) const {
  const int L = num_layers();
  if (L == 0 || packs.size() != static_cast<std::size_t>(L)) {
    // Empty net, or packs from another trunk (or none): plain path.
    forward_inference_into(x, out);
    return;
  }
  if (x.cols() != in_dim()) throw std::invalid_argument("Mlp::forward_inference: dim mismatch");
  Workspace& ws = inference_workspace();
  const Matrix* h = &x;
  Workspace::Lease held;
  for (int l = 0; l < L; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l + 1 == L) {
      linear_forward_into(out, *h, weights_[ul], biases_[ul], Activation::Identity,
                          packs[ul]);
    } else {
      auto cur = ws.acquire(x.rows(), dims_[ul + 1]);
      linear_forward_into(*cur, *h, weights_[ul], biases_[ul], act_, packs[ul]);
      h = &*cur;
      held = std::move(cur);  // drop the previous layer's scratch, keep this one
    }
  }
}

void Mlp::prepack_weights(std::vector<WeightPack>& packs) const {
  packs.resize(static_cast<std::size_t>(num_layers()));
  for (int l = 0; l < num_layers(); ++l) {
    pack_weights(packs[static_cast<std::size_t>(l)], weights_[static_cast<std::size_t>(l)]);
  }
}

const Matrix& Mlp::backward(const Matrix& grad_out, const BackwardNeeds& needs) {
  if (!cached_) throw std::logic_error("Mlp::backward: no cached forward");
  Matrix* cur = &gbuf_a_;
  Matrix* next = &gbuf_b_;
  cur->copy_from(grad_out);
  for (int l = num_layers() - 1; l >= 0; --l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l < num_layers() - 1) {
      apply_activation_grad(act_, hiddens_[ul], *cur);
    }
    if (needs.weight_grads) {
      const Matrix& input = l == 0 ? in0_ : hiddens_[ul - 1];
      matmul_tn_into(w_grads_[ul], input, *cur, /*accumulate=*/true);
      column_sum_into(b_grads_[ul], *cur, /*accumulate=*/true);
    }
    if (l > 0) {
      matmul_nt_into(*next, *cur, weights_[ul]);
    } else {
      matmul_nt_into(*next, *cur, weights_[ul], needs.input_begin,
                     needs.input_end_for(in_dim()));
    }
    std::swap(cur, next);
  }
  return *cur;
}

void Mlp::zero_grad() {
  for (auto& g : w_grads_) g.set_zero();
  for (auto& g : b_grads_) g.set_zero();
}

std::vector<Matrix*> Mlp::params() {
  std::vector<Matrix*> ps;
  for (auto& w : weights_) ps.push_back(&w);
  for (auto& b : biases_) ps.push_back(&b);
  return ps;
}

std::vector<Matrix*> Mlp::grads() {
  std::vector<Matrix*> gs;
  for (auto& g : w_grads_) gs.push_back(&g);
  for (auto& g : b_grads_) gs.push_back(&g);
  return gs;
}

const Matrix& Mlp::hidden(int l) const {
  if (l < 0 || l >= static_cast<int>(hiddens_.size())) {
    throw std::out_of_range("Mlp::hidden: bad layer index");
  }
  return hiddens_[static_cast<std::size_t>(l)];
}

std::unique_ptr<Trunk> Mlp::clone() const { return std::make_unique<Mlp>(*this); }

void Mlp::save(BinaryWriter& w) const {
  w.write_string("mlp");
  w.write_u32(static_cast<std::uint32_t>(dims_.size()));
  for (int d : dims_) w.write_u32(static_cast<std::uint32_t>(d));
  w.write_u32(static_cast<std::uint32_t>(act_));
  for (const auto& m : weights_) w.write_f64_vector(m.to_vector());
  for (const auto& b : biases_) w.write_f64_vector(b.to_vector());
}

Mlp Mlp::load(BinaryReader& r) {
  const std::string tag = r.read_string();
  if (tag != "mlp") throw std::runtime_error("Mlp::load: bad tag '" + tag + "'");
  const auto n = r.read_u32();
  std::vector<int> dims(n);
  for (auto& d : dims) d = static_cast<int>(r.read_u32());
  const auto act = static_cast<Activation>(r.read_u32());
  Rng dummy(1);
  Mlp mlp(dims, act, dummy);
  for (auto& m : mlp.weights_) {
    const auto v = r.read_f64_vector();
    if (v.size() != m.size()) throw std::runtime_error("Mlp::load: weight size mismatch");
    std::copy(v.begin(), v.end(), m.data());
  }
  for (auto& b : mlp.biases_) {
    const auto v = r.read_f64_vector();
    if (v.size() != b.size()) throw std::runtime_error("Mlp::load: bias size mismatch");
    std::copy(v.begin(), v.end(), b.data());
  }
  return mlp;
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  if (dims_ != other.dims_) throw std::invalid_argument("soft_update_from: shape mismatch");
  // Fused blend: p = (1 - tau) * p + tau * o in one pass. Same operation
  // sequence as the old scale+axpy pair, so results (including the tau = 1
  // exact-copy case used by warm starts) are bit-identical.
  const double keep = 1.0 - tau;
  auto blend = [keep, tau](Matrix& dst, const Matrix& src) {
    double* __restrict p = dst.data();
    const double* __restrict o = src.data();
    const std::size_t n = dst.size();
    for (std::size_t i = 0; i < n; ++i) p[i] = keep * p[i] + tau * o[i];
  };
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    blend(weights_[l], other.weights_[l]);
    blend(biases_[l], other.biases_[l]);
  }
}

}  // namespace adsec
