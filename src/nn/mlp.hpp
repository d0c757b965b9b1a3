// Multi-layer perceptron with hand-rolled backprop, plus the `Trunk`
// interface that lets a Gaussian policy head sit on either a plain MLP or a
// progressive-network column stack (nn/pnn.hpp).
//
// Forward/backward are destination-passing: they return const references to
// internal buffers that are resized in place, so a steady-state training
// loop (fixed batch shape) performs zero heap allocations here. The
// returned references are invalidated by the next forward/backward call on
// the same network.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/matrix.hpp"
#include "nn/workspace.hpp"

namespace adsec {

// What a backward() pass must produce. The default is everything; a caller
// that reads only part of the result asks for less, and the products whose
// results nothing reads are skipped. Each value that is still computed keeps
// the ascending-k chain of the full pass, so it is bit-identical to the
// default's within a SIMD tier.
struct BackwardNeeds {
  // Accumulate the parameter grads. Off leaves grads() untouched.
  bool weight_grads{true};
  // Input-grad columns [input_begin, input_end) to return; input_end < 0
  // means in_dim(). backward() then returns a batch x (end - begin) matrix
  // holding exactly those columns. An empty range skips the first layer's
  // input-grad product and returns batch x 0.
  int input_begin{0};
  int input_end{-1};

  // Parameter grads only; the returned input grad is batch x 0.
  static BackwardNeeds params_only() { return {true, 0, 0}; }
  // Input-grad columns [begin, end) only; parameter grads untouched.
  static BackwardNeeds input_only(int begin = 0, int end = -1) {
    return {false, begin, end};
  }

  int input_end_for(int in_dim) const { return input_end < 0 ? in_dim : input_end; }
};

// Feature-extractor interface used by policy/critic heads.
class Trunk {
 public:
  virtual ~Trunk() = default;

  // Training-mode forward: caches intermediates for a following backward().
  // The returned buffer lives until the next forward()/backward().
  virtual const Matrix& forward(const Matrix& x) = 0;

  // Inference-only forward into a caller buffer: no caching, no allocation
  // at steady state (scratch comes from the thread-local workspace), usable
  // on a const object from parallel-eval workers.
  virtual void forward_inference_into(const Matrix& x, Matrix& out) const = 0;

  // Allocating convenience wrapper over forward_inference_into.
  Matrix forward_inference(const Matrix& x) const {
    Matrix out;
    forward_inference_into(x, out);
    return out;
  }

  // Inference forward reusing caller-held pre-packed weights (WeightPack in
  // matrix.hpp): one pack per packable layer, filled by prepack_weights().
  // The caller owns the packs and with them the freshness contract — only
  // use them while this trunk's parameters are frozen (params() hands out
  // in-place-mutable pointers the trunk cannot watch). Default: trunks
  // without a packable layout ignore the packs and leave them empty, so a
  // frozen-policy caller can prepack unconditionally and fall back for
  // free.
  virtual void forward_inference_into(const Matrix& x, Matrix& out,
                                      std::vector<WeightPack>& packs) const {
    (void)packs;
    forward_inference_into(x, out);
  }
  virtual void prepack_weights(std::vector<WeightPack>& packs) const {
    packs.clear();
  }

  // Backprop: accumulates parameter grads, returns grad w.r.t. the input
  // (valid until the next forward()/backward()); `needs` narrows both.
  virtual const Matrix& backward(const Matrix& grad_out,
                                 const BackwardNeeds& needs = {}) = 0;

  virtual void zero_grad() = 0;
  virtual std::vector<Matrix*> params() = 0;
  virtual std::vector<Matrix*> grads() = 0;

  virtual int in_dim() const = 0;
  virtual int out_dim() const = 0;
  virtual std::unique_ptr<Trunk> clone() const = 0;
  virtual void save(BinaryWriter& w) const = 0;
};

class Mlp : public Trunk {
 public:
  Mlp() = default;

  // `dims` = {in, hidden..., out}; hidden layers use `hidden_act`, the output
  // layer is linear.
  Mlp(std::vector<int> dims, Activation hidden_act, Rng& rng);

  const Matrix& forward(const Matrix& x) override;
  void forward_inference_into(const Matrix& x, Matrix& out) const override;
  void forward_inference_into(const Matrix& x, Matrix& out,
                              std::vector<WeightPack>& packs) const override;
  void prepack_weights(std::vector<WeightPack>& packs) const override;
  const Matrix& backward(const Matrix& grad_out,
                         const BackwardNeeds& needs = {}) override;

  void zero_grad() override;
  std::vector<Matrix*> params() override;
  std::vector<Matrix*> grads() override;

  int in_dim() const override { return dims_.empty() ? 0 : dims_.front(); }
  int out_dim() const override { return dims_.empty() ? 0 : dims_.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }
  const std::vector<int>& dims() const { return dims_; }
  Activation hidden_activation() const { return act_; }

  // Post-activation output of hidden layer `l` (0-based) from the most
  // recent training-mode forward. Consumed by PNN lateral connections.
  const Matrix& hidden(int l) const;

  // Weights of layer l (in x out) — read access for PNN initialization.
  const Matrix& weight(int l) const { return weights_[static_cast<std::size_t>(l)]; }
  const Matrix& bias(int l) const { return biases_[static_cast<std::size_t>(l)]; }

  std::unique_ptr<Trunk> clone() const override;

  void save(BinaryWriter& w) const override;
  static Mlp load(BinaryReader& r);

  // Polyak blend toward another MLP of identical shape (target networks):
  // param := (1 - tau) * param + tau * other.param.
  void soft_update_from(const Mlp& other, double tau);

 private:
  std::vector<int> dims_;
  Activation act_{Activation::ReLU};
  std::vector<Matrix> weights_;  // layer l: dims[l] x dims[l+1]
  std::vector<Matrix> biases_;   // 1 x dims[l+1]
  std::vector<Matrix> w_grads_;
  std::vector<Matrix> b_grads_;

  // Forward cache, resized in place each training forward. The input to
  // layer l is in0_ for l == 0 and hiddens_[l-1] otherwise.
  Matrix in0_;
  std::vector<Matrix> hiddens_;  // post-activation hidden outputs
  Matrix out_;                   // final linear output
  bool cached_{false};

  // Backward scratch: gradient ping-pong buffers + returned input grad.
  Matrix gbuf_a_;
  Matrix gbuf_b_;
};

}  // namespace adsec
