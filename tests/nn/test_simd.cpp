// The SIMD dispatch contract (nn/simd.hpp):
//   * every available tier passes GEMM/GEMV parity vs the reference::
//     oracle (exact for scalar, ulp-tolerance for the FMA tier);
//   * WITHIN a tier, a row pushed through a batched B x k forward is
//     bit-identical to the same row pushed through a 1 x k forward — the
//     property the episode executor's lane-batched == serial
//     guarantee bottoms out in;
//   * repeated runs are bit-identical per tier;
//   * ADSEC_SIMD / force_tier validation and the aligned-storage fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace adsec {
namespace {

// Restores the dispatch default (lazy env/CPUID resolution) however the
// test exits, so test order can't leak a forced tier.
struct TierGuard {
  ~TierGuard() { simd::reset_tier(); }
};

Matrix make_random(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << what << " flat index " << i;
  }
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndListedFirst) {
  const auto tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::Scalar);
  EXPECT_TRUE(simd::tier_supported(simd::Tier::Scalar));
  for (const simd::Tier t : tiers) EXPECT_TRUE(simd::tier_supported(t));
}

TEST(SimdDispatch, TierNamesMatchEnvSpelling) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
}

TEST(SimdDispatch, ForceTierTakesEffectAndResets) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    EXPECT_EQ(simd::active_tier(), t);
  }
  simd::reset_tier();
  // After reset the lazy resolution must still yield a supported tier.
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
}

TEST(SimdDispatch, ForceUnsupportedTierThrowsConfig) {
  if (simd::tier_supported(simd::Tier::Avx2)) {
    GTEST_SKIP() << "avx2 supported here; nothing is unsupported to force";
  }
  try {
    simd::force_tier(simd::Tier::Avx2);
    FAIL() << "expected Error{Config}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Config);
  }
}

TEST(SimdDispatch, BogusEnvValueThrowsConfig) {
  TierGuard guard;
  simd::reset_tier();
  ASSERT_EQ(setenv("ADSEC_SIMD", "avx512-of-my-dreams", /*overwrite=*/1), 0);
  try {
    (void)simd::active_tier();
    ADD_FAILURE() << "expected Error{Config}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Config);
  }
  unsetenv("ADSEC_SIMD");
  simd::reset_tier();
}

// The parity oracle, per tier. Scalar is pinned -ffp-contract=off so it is
// exactly the reference arithmetic; the FMA tier rounds once per
// multiply-add, hence the tolerance branch.
TEST(SimdParity, EveryAvailableTierMatchesReference) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(99);
    for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
             {1, 8, 64}, {1, 257, 19}, {3, 5, 7}, {8, 8, 8}, {13, 29, 31},
             {64, 64, 64}, {130, 40, 33}}) {
      const Matrix a = make_random(m, k, rng);
      const Matrix b = make_random(k, n, rng);
      const Matrix got = matmul(a, b);
      const Matrix want = reference::matmul(a, b);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (t == simd::Tier::Scalar) {
          EXPECT_EQ(got.data()[i], want.data()[i])
              << simd::tier_name(t) << " " << m << "x" << n << "x" << k
              << " flat " << i;
        } else {
          EXPECT_NEAR(got.data()[i], want.data()[i],
                      1e-12 * (1.0 + std::abs(want.data()[i])))
              << simd::tier_name(t) << " " << m << "x" << n << "x" << k
              << " flat " << i;
        }
      }
    }
  }
}

// The linchpin of batched inference: row r of a B x k linear forward is
// bit-identical to running that row alone, for every batch size across the
// GEMV/blocked path boundary — per tier.
TEST(SimdParity, RowBatchedForwardIsBitIdenticalToPerRowPerTier) {
  TierGuard guard;
  const int k = 67;
  const int n = 33;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(4242);
    const Matrix w = make_random(k, n, rng);
    const Matrix bias = make_random(1, n, rng);
    for (const int batch : {1, 2, 3, 4, 5, 8, 16}) {
      const Matrix x = make_random(batch, k, rng);
      Matrix batched;
      linear_forward_into(batched, x, w, bias, Activation::Tanh);
      for (int r = 0; r < batch; ++r) {
        Matrix one_row;
        row_into(one_row, x.row(r));
        Matrix single;
        linear_forward_into(single, one_row, w, bias, Activation::Tanh);
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(batched(r, j), single(0, j))
              << simd::tier_name(t) << " batch=" << batch << " row=" << r
              << " col=" << j;
        }
      }
    }
  }
}

TEST(SimdParity, RepeatedRunsAreBitIdenticalPerTier) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(7);
    const Matrix a = make_random(13, 31, rng);
    const Matrix b = make_random(31, 29, rng);
    const Matrix first = matmul(a, b);
    const Matrix second = matmul(a, b);
    expect_bitwise(first, second, simd::tier_name(t));
  }
}

// Satellite fix: Matrix storage is 32-byte aligned for every shape and
// across in-place reshapes, so the AVX2 tier's aligned panel loads are
// valid and ASan/UBSan can police the contract.
TEST(MatrixAlignment, StorageIsAlignedAcrossShapesAndResizes) {
  const auto aligned = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kMatrixAlign == 0;
  };
  for (const auto& [r, c] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {5, 7}, {3, 19}, {128, 67}, {1, 257}}) {
    Matrix m(r, c);
    EXPECT_TRUE(aligned(m.data())) << r << "x" << c;
    m.resize(c, r);
    EXPECT_TRUE(aligned(m.data())) << "resized " << c << "x" << r;
    m.resize(r * 2 + 1, c * 2 + 1);
    EXPECT_TRUE(aligned(m.data())) << "grown";
  }
  Rng rng(5);
  Matrix m = Matrix::randn(9, 13, rng, 1.0);
  Matrix copy;
  copy.copy_from(m);
  EXPECT_TRUE(aligned(copy.data()));
  const Matrix from_vec = Matrix::from_vector({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_TRUE(aligned(from_vec.data()));
}

// Unaligned-shape inputs (odd leading dimensions put most rows off the
// 32-byte grid) must be handled by the unaligned-load paths — this is the
// shape zoo ASan/UBSan sweep in CI leans on.
TEST(MatrixAlignment, OddLeadingDimensionsComputeCorrectly) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    Rng rng(11);
    const Matrix a = make_random(5, 7, rng);
    const Matrix b = make_random(7, 9, rng);
    const Matrix got = matmul(a, b);
    const Matrix want = reference::matmul(a, b);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 1e-12) << simd::tier_name(t);
    }
  }
}

}  // namespace
}  // namespace adsec
