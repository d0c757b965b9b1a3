// Tanh-squashed Gaussian policy head (the SAC actor).
//
// The trunk outputs [mu | log_std] (2 * act_dim). Sampling uses the
// reparameterization trick: a = tanh(mu + sigma * xi), xi ~ N(0, I), with
// the tanh log-density correction. `backward` takes the loss gradients with
// respect to the sampled action and to log-prob and chains them through the
// sampling noise into the trunk — exactly what SAC's actor loss
// E[alpha * log pi - Q] needs.
//
// The hot entry points are destination-passing: sample() returns a
// reference to a member sample (valid until the next sample()), and the
// *_into inference variants write caller buffers using only thread-local
// workspace scratch, so rollout stepping and gradient bursts run
// allocation-free at steady state.
#pragma once

#include <memory>

#include "nn/mlp.hpp"

namespace adsec {

struct PolicySample {
  Matrix action;    // batch x act_dim, each element in (-1, 1)
  Matrix log_prob;  // batch x 1
};

class GaussianPolicy {
 public:
  GaussianPolicy(std::unique_ptr<Trunk> trunk, int act_dim);
  GaussianPolicy(const GaussianPolicy& other);
  GaussianPolicy& operator=(const GaussianPolicy& other);
  GaussianPolicy(GaussianPolicy&&) = default;
  GaussianPolicy& operator=(GaussianPolicy&&) = default;

  // Standard actor: MLP trunk with the given hidden sizes.
  static GaussianPolicy make_mlp(int obs_dim, const std::vector<int>& hidden,
                                 int act_dim, Rng& rng);

  // Training-mode sample; caches intermediates for backward(). The returned
  // sample is a member buffer, valid until the next sample() on this policy.
  const PolicySample& sample(const Matrix& obs, Rng& rng);

  // Stochastic sample without caching (usable on const objects); writes the
  // caller's buffers.
  void sample_inference_into(const Matrix& obs, Rng& rng, PolicySample& out) const;
  PolicySample sample_inference(const Matrix& obs, Rng& rng) const {
    PolicySample out;
    sample_inference_into(obs, rng, out);
    return out;
  }

  // Deterministic action tanh(mu) — used at evaluation time.
  void mean_action_into(const Matrix& obs, Matrix& out) const;
  Matrix mean_action(const Matrix& obs) const {
    Matrix out;
    mean_action_into(obs, out);
    return out;
  }

  // mean_action_into reusing caller-held pre-packed trunk weights; see
  // Trunk::forward_inference_into(x, out, packs) for the freshness
  // contract. Fill `packs` with prepack_weights() while the policy is
  // frozen (deployed victim policies are); a trunk without a packable
  // layout leaves packs empty and this degrades to the plain path.
  void mean_action_into(const Matrix& obs, Matrix& out,
                        std::vector<WeightPack>& packs) const;
  void prepack_weights(std::vector<WeightPack>& packs) const {
    trunk_->prepack_weights(packs);
  }

  // Chain loss gradients through the last sample() into the trunk.
  // dL_da: batch x act_dim; dL_dlogp: batch x 1. `needs` is passed to the
  // trunk's backward (whose input grad this discards).
  void backward(const Matrix& dL_da, const Matrix& dL_dlogp,
                const BackwardNeeds& needs = {});

  void zero_grad() { trunk_->zero_grad(); }
  std::vector<Matrix*> params() { return trunk_->params(); }
  std::vector<Matrix*> grads() { return trunk_->grads(); }

  int obs_dim() const { return trunk_->in_dim(); }
  int act_dim() const { return act_dim_; }
  Trunk& trunk() { return *trunk_; }
  const Trunk& trunk() const { return *trunk_; }

  void save(BinaryWriter& w) const;
  // Loading lives in nn/io.hpp (needs trunk-type dispatch).

 private:
  struct SampleCache {
    Matrix a;      // tanh(u)
    Matrix sigma;  // exp(log_std)
    Matrix xi;     // noise
    bool valid{false};
  };

  // Sample from a [mu | log_std] head into `out` (buffers resized in
  // place); fills `cache` for a later backward() when non-null.
  static void sample_into(const Matrix& head, int act_dim, Rng& rng, PolicySample& out,
                          SampleCache* cache);

  std::unique_ptr<Trunk> trunk_;
  int act_dim_{0};
  SampleCache cache_;
  PolicySample sample_;  // returned by sample()
  Matrix dhead_;         // backward scratch
};

inline constexpr double kLogStdMin = -5.0;
inline constexpr double kLogStdMax = 2.0;
inline constexpr double kTanhEps = 1e-6;

}  // namespace adsec
