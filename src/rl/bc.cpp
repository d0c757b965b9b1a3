#include "rl/bc.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "nn/adam.hpp"

namespace adsec {

BcResult bc_train(GaussianPolicy& policy, const Matrix& obs, const Matrix& acts,
                  const BcConfig& config) {
  if (obs.rows() != acts.rows()) throw std::invalid_argument("bc_train: row mismatch");
  if (obs.rows() == 0) throw std::invalid_argument("bc_train: empty dataset");
  if (acts.cols() != policy.act_dim()) {
    throw std::invalid_argument("bc_train: action dim mismatch");
  }

  Rng rng(config.seed);
  AdamConfig opt_cfg;
  opt_cfg.lr = config.lr;
  Adam opt(policy.params(), policy.grads(), opt_cfg);

  const int n = obs.rows();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  BcResult result;
  // Batch buffers hoisted out of the loops: the trailing short batch and the
  // following full batch just resize these in place (capacity is kept).
  Matrix bo, ba, dL_da, dL_dlogp;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic rng.
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.uniform_int(static_cast<std::uint32_t>(i + 1)));
      std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
    }

    double epoch_loss = 0.0;
    int batches = 0;
    for (int start = 0; start < n; start += config.batch_size) {
      const int bsz = std::min(config.batch_size, n - start);
      bo.resize(bsz, obs.cols());
      ba.resize(bsz, acts.cols());
      for (int i = 0; i < bsz; ++i) {
        const int k = order[static_cast<std::size_t>(start + i)];
        std::memcpy(bo.data() + static_cast<std::size_t>(i) * obs.cols(),
                    obs.data() + static_cast<std::size_t>(k) * obs.cols(),
                    sizeof(double) * static_cast<std::size_t>(obs.cols()));
        std::memcpy(ba.data() + static_cast<std::size_t>(i) * acts.cols(),
                    acts.data() + static_cast<std::size_t>(k) * acts.cols(),
                    sizeof(double) * static_cast<std::size_t>(acts.cols()));
      }

      const PolicySample& s = policy.sample(bo, rng);
      dL_da.resize(bsz, acts.cols());
      double loss = 0.0;
      for (int i = 0; i < bsz; ++i) {
        for (int j = 0; j < acts.cols(); ++j) {
          const double err = s.action(i, j) - ba(i, j);
          loss += err * err / bsz;
          dL_da(i, j) = 2.0 * err / bsz;
        }
      }
      dL_dlogp.resize(bsz, 1);
      for (int i = 0; i < bsz; ++i) dL_dlogp(i, 0) = config.entropy_weight / bsz;

      policy.backward(dL_da, dL_dlogp, BackwardNeeds::params_only());
      opt.step();
      epoch_loss += loss;
      ++batches;
    }
    result.epoch_losses.push_back(epoch_loss / std::max(1, batches));
  }
  return result;
}

}  // namespace adsec
