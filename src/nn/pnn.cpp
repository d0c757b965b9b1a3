#include "nn/pnn.hpp"

#include <cmath>
#include <stdexcept>

namespace adsec {

PnnTrunk::PnnTrunk(const Mlp& base, bool init_from_base, Rng& rng) : base_(base) {
  const auto& dims = base.dims();
  const int L = base.num_layers();
  for (int l = 0; l < L; ++l) {
    const int out = dims[static_cast<std::size_t>(l) + 1];
    const int own_in = dims[static_cast<std::size_t>(l)];
    const int lateral_in = l == 0 ? 0 : dims[static_cast<std::size_t>(l)];
    const int in = own_in + lateral_in;
    const double scale = 1.0 / std::sqrt(static_cast<double>(in));
    Matrix w = Matrix::randn(in, out, rng, scale);
    Matrix b(1, out);
    if (init_from_base) {
      // Own-input slice copies the base layer; lateral slice starts at zero
      // so the fresh column reproduces the base policy exactly.
      const Matrix& bw = base.weight(l);
      for (int i = 0; i < own_in; ++i) {
        for (int j = 0; j < out; ++j) w(i, j) = bw(i, j);
      }
      for (int i = own_in; i < in; ++i) {
        for (int j = 0; j < out; ++j) w(i, j) = 0.0;
      }
      b = base.bias(l);
    }
    weights_.push_back(std::move(w));
    biases_.push_back(std::move(b));
    w_grads_.emplace_back(in, out);
    b_grads_.emplace_back(1, out);
  }
}

const Matrix& PnnTrunk::forward(const Matrix& x) {
  const int L = static_cast<int>(weights_.size());
  if (L == 0) {
    out_.copy_from(x);
    return out_;
  }

  // Column 1 (frozen): recompute its hidden activations layer by layer. Its
  // head output feeds nothing, so the last layer is skipped.
  base_hiddens_.resize(static_cast<std::size_t>(L - 1));
  {
    const Matrix* h = &x;
    for (int l = 0; l + 1 < L; ++l) {
      const auto ul = static_cast<std::size_t>(l);
      linear_forward_into(base_hiddens_[ul], *h, base_.weight(l), base_.bias(l),
                          base_.hidden_activation());
      h = &base_hiddens_[ul];
    }
  }

  // Column 2 with lateral inputs.
  inputs_.resize(static_cast<std::size_t>(L));
  hiddens_.resize(static_cast<std::size_t>(L - 1));
  inputs_[0].copy_from(x);
  const Matrix* h2 = nullptr;
  for (int l = 0; l < L; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l > 0) hconcat_into(inputs_[ul], *h2, base_hiddens_[ul - 1]);
    const bool last = l + 1 == L;
    Matrix& dst = last ? out_ : hiddens_[ul];
    linear_forward_into(dst, inputs_[ul], weights_[ul], biases_[ul],
                        last ? Activation::Identity : base_.hidden_activation());
    h2 = &dst;
  }
  cached_ = true;
  return out_;
}

void PnnTrunk::forward_inference_into(const Matrix& x, Matrix& out) const {
  const int L = static_cast<int>(weights_.size());
  if (L == 0) {
    out.copy_from(x);
    return;
  }
  Workspace& ws = inference_workspace();
  Workspace::Lease h1_held, h2_held;
  const Matrix* h1 = &x;  // column-1 activation feeding its layer l
  const Matrix* h2 = &x;  // column-2 activation feeding its layer l
  for (int l = 0; l < L; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    const bool last = l + 1 == L;
    const Matrix* in2 = h2;
    Workspace::Lease cat;  // released at end of iteration
    if (l > 0) {
      cat = ws.acquire(x.rows(), h2->cols() + h1->cols());
      hconcat_into(*cat, *h2, *h1);
      in2 = &*cat;
    }
    if (last) {
      linear_forward_into(out, *in2, weights_[ul], biases_[ul]);
    } else {
      auto h2n = ws.acquire(x.rows(), weights_[ul].cols());
      linear_forward_into(*h2n, *in2, weights_[ul], biases_[ul],
                          base_.hidden_activation());
      auto h1n = ws.acquire(x.rows(), base_.weight(l).cols());
      linear_forward_into(*h1n, *h1, base_.weight(l), base_.bias(l),
                          base_.hidden_activation());
      h2 = &*h2n;
      h1 = &*h1n;
      h2_held = std::move(h2n);  // drop the previous layer's scratch
      h1_held = std::move(h1n);
    }
  }
}

const Matrix& PnnTrunk::backward(const Matrix& grad_out, const BackwardNeeds& needs) {
  if (!cached_) throw std::logic_error("PnnTrunk::backward: no cached forward");
  const int L = static_cast<int>(weights_.size());
  Matrix* cur = &gbuf_a_;
  Matrix* next = &gbuf_b_;
  cur->copy_from(grad_out);
  for (int l = L - 1; l >= 0; --l) {
    const auto ul = static_cast<std::size_t>(l);
    if (l < L - 1) {
      apply_activation_grad(base_.hidden_activation(), hiddens_[ul], *cur);
    }
    if (needs.weight_grads) {
      matmul_tn_into(w_grads_[ul], inputs_[ul], *cur, /*accumulate=*/true);
      column_sum_into(b_grads_[ul], *cur, /*accumulate=*/true);
    }
    if (l == 0) {
      // Gradient w.r.t. the observation.
      matmul_nt_into(*next, *cur, weights_[ul], needs.input_begin,
                     needs.input_end_for(in_dim()));
    } else {
      // Only the own-column slice; the lateral slice feeds the frozen
      // column and is never computed.
      const int own = hiddens_[ul - 1].cols();
      matmul_nt_into(*next, *cur, weights_[ul], 0, own);
    }
    std::swap(cur, next);
  }
  return *cur;
}

void PnnTrunk::zero_grad() {
  for (auto& g : w_grads_) g.set_zero();
  for (auto& g : b_grads_) g.set_zero();
}

std::vector<Matrix*> PnnTrunk::params() {
  std::vector<Matrix*> ps;
  for (auto& w : weights_) ps.push_back(&w);
  for (auto& b : biases_) ps.push_back(&b);
  return ps;
}

std::vector<Matrix*> PnnTrunk::grads() {
  std::vector<Matrix*> gs;
  for (auto& g : w_grads_) gs.push_back(&g);
  for (auto& g : b_grads_) gs.push_back(&g);
  return gs;
}

std::unique_ptr<Trunk> PnnTrunk::clone() const { return std::make_unique<PnnTrunk>(*this); }

void PnnTrunk::save(BinaryWriter& w) const {
  w.write_string("pnn");
  base_.save(w);
  w.write_u32(static_cast<std::uint32_t>(weights_.size()));
  for (const auto& m : weights_) {
    w.write_u32(static_cast<std::uint32_t>(m.rows()));
    w.write_u32(static_cast<std::uint32_t>(m.cols()));
    w.write_f64_vector(m.to_vector());
  }
  for (const auto& b : biases_) w.write_f64_vector(b.to_vector());
}

PnnTrunk PnnTrunk::load(BinaryReader& r) {
  const std::string tag = r.read_string();
  if (tag != "pnn") throw std::runtime_error("PnnTrunk::load: bad tag '" + tag + "'");
  PnnTrunk t;
  t.base_ = Mlp::load(r);
  const auto n = r.read_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto rows = static_cast<int>(r.read_u32());
    const auto cols = static_cast<int>(r.read_u32());
    Matrix m(rows, cols);
    const auto v = r.read_f64_vector();
    if (v.size() != m.size()) throw std::runtime_error("PnnTrunk::load: size mismatch");
    std::copy(v.begin(), v.end(), m.data());
    t.weights_.push_back(std::move(m));
    t.w_grads_.emplace_back(rows, cols);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto v = r.read_f64_vector();
    Matrix b(1, static_cast<int>(v.size()));
    std::copy(v.begin(), v.end(), b.data());
    t.biases_.push_back(std::move(b));
    t.b_grads_.emplace_back(1, static_cast<int>(v.size()));
  }
  return t;
}

}  // namespace adsec
