// BackwardNeeds: a narrowed backward() computes a subset of the full pass
// and nothing else. The oracle is the default (full) backward on an
// identical copy of the network: the returned input-grad columns must
// memcmp-equal the matching columns of the full input grad, parameter grads
// must be bitwise equal when requested and untouched when not. Checked on
// every supported SIMD tier, over batch sizes on both sides of the GEMV/
// blocked switch, including the zoo critic 269 -> 64 -> 64 -> 1.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/gaussian_policy.hpp"
#include "nn/mlp.hpp"
#include "nn/pnn.hpp"
#include "nn/simd.hpp"

namespace adsec {
namespace {

struct TierGuard {
  ~TierGuard() { simd::reset_tier(); }
};

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Columns [begin, end) of `m`.
Matrix columns(const Matrix& m, int begin, int end) {
  Matrix out(m.rows(), end - begin);
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = begin; j < end; ++j) out(i, j - begin) = m(i, j);
  }
  return out;
}

// Give every grad the same random, nonzero contents on both networks, so
// "accumulates identically" and "left untouched" are both observable.
void prefill_grads(std::vector<Matrix*> a, std::vector<Matrix*> b,
                   std::uint64_t seed) {
  Rng rng(seed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t i = 0; i < a[k]->size(); ++i) {
      const double v = rng.normal();
      a[k]->data()[i] = v;
      b[k]->data()[i] = v;
    }
  }
}

std::vector<Matrix> snapshot(const std::vector<Matrix*>& ms) {
  std::vector<Matrix> out;
  for (const Matrix* m : ms) out.push_back(*m);
  return out;
}

// Runs `needs` on `probe` and the full backward on `full` (identical
// trunks, identical cached input) and checks the contract.
void expect_subset_of_full(Trunk& full, Trunk& probe, const Matrix& x,
                           const Matrix& grad_out, const BackwardNeeds& needs) {
  prefill_grads(full.grads(), probe.grads(), 99);
  const std::vector<Matrix> before = snapshot(probe.grads());

  full.forward(x);
  const Matrix gin_full = full.backward(grad_out);
  probe.forward(x);
  const Matrix gin = probe.backward(grad_out, needs);

  const int end = needs.input_end_for(full.in_dim());
  EXPECT_TRUE(same_bits(gin, columns(gin_full, needs.input_begin, end)))
      << "input grad columns [" << needs.input_begin << ", " << end << ")";

  const auto g_full = full.grads();
  const auto g_probe = probe.grads();
  for (std::size_t k = 0; k < g_probe.size(); ++k) {
    const Matrix& want = needs.weight_grads ? *g_full[k] : before[k];
    EXPECT_TRUE(same_bits(*g_probe[k], want))
        << "grad " << k << (needs.weight_grads ? " differs from the full pass"
                                               : " was touched");
  }
}

std::vector<BackwardNeeds> needs_for(int in_dim, Rng& rng) {
  const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint32_t>(in_dim)));
  const int b = a + 1 + static_cast<int>(rng.uniform_int(
                            static_cast<std::uint32_t>(in_dim - a)));
  return {BackwardNeeds{},
          BackwardNeeds::params_only(),
          BackwardNeeds::input_only(),
          BackwardNeeds::input_only(a, b),
          {true, a, b},
          BackwardNeeds::input_only(in_dim - 2, in_dim),
          BackwardNeeds::input_only(a, a),
          {false, 0, 0}};
}

TEST(BackwardNeeds, MlpComputesExactlyTheRequestedSubset) {
  TierGuard guard;
  const std::vector<std::vector<int>> shapes = {
      {269, 64, 64, 1}, {267, 64, 64, 4}, {5, 3}, {7, 9, 2}, {13, 6, 11, 5}};
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    SCOPED_TRACE(simd::tier_name(tier));
    Rng rng(17);
    for (const auto& dims : shapes) {
      for (const int batch : {1, 3, 4, 32}) {
        SCOPED_TRACE(::testing::Message() << "in " << dims.front() << " batch " << batch);
        Mlp full(dims, Activation::ReLU, rng);
        const Matrix x = Matrix::randn(batch, dims.front(), rng, 1.0);
        const Matrix g = Matrix::randn(batch, dims.back(), rng, 1.0);
        for (const BackwardNeeds& needs : needs_for(dims.front(), rng)) {
          Mlp probe = full;
          expect_subset_of_full(full, probe, x, g, needs);
        }
      }
    }
  }
}

TEST(BackwardNeeds, PnnComputesExactlyTheRequestedSubset) {
  TierGuard guard;
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    SCOPED_TRACE(simd::tier_name(tier));
    Rng rng(23);
    for (const auto& dims : std::vector<std::vector<int>>{{12, 8, 8, 4}, {30, 16, 6}}) {
      const Mlp base(dims, Activation::ReLU, rng);
      for (const int batch : {2, 9}) {
        PnnTrunk full(base, /*init_from_base=*/false, rng);
        const Matrix x = Matrix::randn(batch, dims.front(), rng, 1.0);
        const Matrix g = Matrix::randn(batch, dims.back(), rng, 1.0);
        for (const BackwardNeeds& needs : needs_for(dims.front(), rng)) {
          PnnTrunk probe = full;
          expect_subset_of_full(full, probe, x, g, needs);
        }
      }
    }
  }
}

TEST(BackwardNeeds, GaussianPolicyPassesNeedsToItsTrunk) {
  Rng rng(31);
  GaussianPolicy full = GaussianPolicy::make_mlp(10, {16, 16}, 2, rng);
  GaussianPolicy probe = full;
  const Matrix obs = Matrix::randn(6, 10, rng, 1.0);
  const Matrix da = Matrix::randn(6, 2, rng, 1.0);
  Matrix dlogp(6, 1);
  dlogp.fill(0.25);
  Rng s1(5), s2(5);
  full.sample(obs, s1);
  probe.sample(obs, s2);
  full.backward(da, dlogp);
  probe.backward(da, dlogp, BackwardNeeds::params_only());
  const auto gf = full.grads();
  const auto gp = probe.grads();
  for (std::size_t k = 0; k < gf.size(); ++k) EXPECT_TRUE(same_bits(*gf[k], *gp[k]));
}

TEST(BackwardNeeds, OutOfRangeColumnsThrow) {
  Rng rng(3);
  Mlp mlp({4, 5, 2}, Activation::ReLU, rng);
  const Matrix x = Matrix::randn(2, 4, rng, 1.0);
  const Matrix g = Matrix::randn(2, 2, rng, 1.0);
  mlp.forward(x);
  EXPECT_THROW(mlp.backward(g, BackwardNeeds::input_only(3, 5)), std::invalid_argument);
  mlp.forward(x);
  EXPECT_THROW(mlp.backward(g, BackwardNeeds::input_only(3, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace adsec
