// Progressive Neural Network trunk (Rusu et al., 2016), as used by the
// paper's second defense (Sec. VI-B).
//
// Column 1 is the frozen trunk of the original driving policy pi_ori.
// Column 2 has the same layer widths and receives *lateral connections*:
// layer l of column 2 sees [h2_{l-1} | h1_{l-1}], its own previous hidden
// activations concatenated with column 1's. Only column 2's weights train,
// so the original policy is untouched — this is what defeats catastrophic
// forgetting: the Simplex-style switcher (defense/pnn_agent) picks which
// column's head drives the vehicle.
#pragma once

#include "nn/mlp.hpp"

namespace adsec {

class PnnTrunk : public Trunk {
 public:
  PnnTrunk() = default;

  // `base` is copied and frozen. When `init_from_base` is set, column 2's
  // own-input weight slices start as a copy of the base weights and the
  // lateral slices start at zero, so the new column initially replicates the
  // base policy (a warm start that the adversarial fine-tuning then adapts).
  PnnTrunk(const Mlp& base, bool init_from_base, Rng& rng);

  const Matrix& forward(const Matrix& x) override;
  void forward_inference_into(const Matrix& x, Matrix& out) const override;
  const Matrix& backward(const Matrix& grad_out,
                         const BackwardNeeds& needs = {}) override;

  void zero_grad() override;
  std::vector<Matrix*> params() override;  // column-2 parameters only
  std::vector<Matrix*> grads() override;

  int in_dim() const override { return base_.in_dim(); }
  int out_dim() const override { return base_.out_dim(); }
  std::unique_ptr<Trunk> clone() const override;

  const Mlp& base() const { return base_; }

  void save(BinaryWriter& w) const override;
  static PnnTrunk load(BinaryReader& r);

 private:
  Mlp base_;  // frozen column 1

  // Column 2: layer 0 is in_dim x h0; layer l >= 1 is (h_{l-1} + h1_{l-1}) x h_l
  // where the first slice multiplies column 2's own hidden state and the
  // second is the lateral connection from column 1.
  std::vector<Matrix> weights_;
  std::vector<Matrix> biases_;
  std::vector<Matrix> w_grads_;
  std::vector<Matrix> b_grads_;

  // Training caches, resized in place each forward (zero allocations once
  // the batch shape is warm). The frozen column's head output is never
  // needed, so only its hiddens are recomputed.
  std::vector<Matrix> base_hiddens_;  // column-1 post-activation hiddens
  std::vector<Matrix> inputs_;        // concatenated input to each column-2 layer
  std::vector<Matrix> hiddens_;       // column-2 post-activation hiddens
  Matrix out_;
  bool cached_{false};

  // Backward scratch: gradient ping-pong buffers.
  Matrix gbuf_a_;
  Matrix gbuf_b_;
};

}  // namespace adsec
