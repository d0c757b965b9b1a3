#include "nn/gaussian_policy.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)
}

GaussianPolicy::GaussianPolicy(std::unique_ptr<Trunk> trunk, int act_dim)
    : trunk_(std::move(trunk)), act_dim_(act_dim) {
  if (!trunk_) throw std::invalid_argument("GaussianPolicy: null trunk");
  if (trunk_->out_dim() != 2 * act_dim) {
    throw std::invalid_argument("GaussianPolicy: trunk out_dim must be 2*act_dim");
  }
}

GaussianPolicy::GaussianPolicy(const GaussianPolicy& other)
    : trunk_(other.trunk_->clone()), act_dim_(other.act_dim_) {}

GaussianPolicy& GaussianPolicy::operator=(const GaussianPolicy& other) {
  if (this != &other) {
    trunk_ = other.trunk_->clone();
    act_dim_ = other.act_dim_;
    cache_.valid = false;
  }
  return *this;
}

GaussianPolicy GaussianPolicy::make_mlp(int obs_dim, const std::vector<int>& hidden,
                                        int act_dim, Rng& rng) {
  std::vector<int> dims;
  dims.push_back(obs_dim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(2 * act_dim);
  return GaussianPolicy(std::make_unique<Mlp>(dims, Activation::ReLU, rng), act_dim);
}

void GaussianPolicy::sample_into(const Matrix& head, int act_dim, Rng& rng,
                                 PolicySample& out, SampleCache* cache) {
  const int n = head.rows();
  out.action.resize(n, act_dim);
  out.log_prob.resize(n, 1);
  if (cache != nullptr) {
    cache->a.resize(n, act_dim);
    cache->sigma.resize(n, act_dim);
    cache->xi.resize(n, act_dim);
  }
  // Row-major element order fixed: the rng.normal() draw sequence is part of
  // run determinism (checkpoint resume replays it).
  for (int i = 0; i < n; ++i) {
    double logp = 0.0;
    for (int j = 0; j < act_dim; ++j) {
      const double ls = clamp(head(i, act_dim + j), kLogStdMin, kLogStdMax);
      const double s = std::exp(ls);
      const double x = rng.normal();
      const double u = head(i, j) + s * x;
      const double av = std::tanh(u);
      out.action(i, j) = av;
      if (cache != nullptr) {
        cache->a(i, j) = av;
        cache->sigma(i, j) = s;
        cache->xi(i, j) = x;
      }
      logp += -0.5 * x * x - ls - kHalfLog2Pi - std::log(1.0 - av * av + kTanhEps);
    }
    out.log_prob(i, 0) = logp;
  }
  if (cache != nullptr) cache->valid = true;
}

const PolicySample& GaussianPolicy::sample(const Matrix& obs, Rng& rng) {
  const Matrix& head = trunk_->forward(obs);
  sample_into(head, act_dim_, rng, sample_, &cache_);
  return sample_;
}

void GaussianPolicy::sample_inference_into(const Matrix& obs, Rng& rng,
                                           PolicySample& out) const {
  auto head = inference_workspace().acquire(obs.rows(), 2 * act_dim_);
  trunk_->forward_inference_into(obs, *head);
  sample_into(*head, act_dim_, rng, out, nullptr);
}

void GaussianPolicy::mean_action_into(const Matrix& obs, Matrix& out) const {
  auto head = inference_workspace().acquire(obs.rows(), 2 * act_dim_);
  trunk_->forward_inference_into(obs, *head);
  out.resize(obs.rows(), act_dim_);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < act_dim_; ++j) out(i, j) = std::tanh((*head)(i, j));
  }
}

void GaussianPolicy::mean_action_into(const Matrix& obs, Matrix& out,
                                      std::vector<WeightPack>& packs) const {
  auto head = inference_workspace().acquire(obs.rows(), 2 * act_dim_);
  trunk_->forward_inference_into(obs, *head, packs);
  out.resize(obs.rows(), act_dim_);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < act_dim_; ++j) out(i, j) = std::tanh((*head)(i, j));
  }
}

void GaussianPolicy::backward(const Matrix& dL_da, const Matrix& dL_dlogp,
                              const BackwardNeeds& needs) {
  if (!cache_.valid) throw std::logic_error("GaussianPolicy::backward: no cached sample");
  const int n = cache_.a.rows();
  if (dL_da.rows() != n || dL_da.cols() != act_dim_ || dL_dlogp.rows() != n ||
      dL_dlogp.cols() != 1) {
    throw std::invalid_argument("GaussianPolicy::backward: gradient shape mismatch");
  }

  // Head gradient layout: [d mu | d log_std].
  dhead_.resize(n, 2 * act_dim_);
  for (int i = 0; i < n; ++i) {
    const double glp = dL_dlogp(i, 0);
    for (int j = 0; j < act_dim_; ++j) {
      const double a = cache_.a(i, j);
      const double one_m_a2 = 1.0 - a * a;
      const double sx = cache_.sigma(i, j) * cache_.xi(i, j);
      const double da_dmu = one_m_a2;
      const double da_dls = one_m_a2 * sx;
      // logp = -0.5*xi^2 - ls - c - log(1 - a^2 + eps); with xi fixed,
      // d(-log(1-a^2+eps))/du = +2a(1-a^2)/(1-a^2+eps).
      const double dlogp_dmu = 2.0 * a * one_m_a2 / (one_m_a2 + kTanhEps);
      const double dlogp_dls = -1.0 + 2.0 * a * one_m_a2 * sx / (one_m_a2 + kTanhEps);
      dhead_(i, j) = dL_da(i, j) * da_dmu + glp * dlogp_dmu;
      dhead_(i, act_dim_ + j) = dL_da(i, j) * da_dls + glp * dlogp_dls;
    }
  }
  trunk_->backward(dhead_, needs);
  cache_.valid = false;
}

void GaussianPolicy::save(BinaryWriter& w) const {
  w.write_string("gaussian_policy");
  w.write_u32(static_cast<std::uint32_t>(act_dim_));
  trunk_->save(w);
}

}  // namespace adsec
