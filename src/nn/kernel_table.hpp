// Internal per-tier kernel table consumed by the GEMM/GEMV drivers in
// matrix.cpp and by Adam::step. Not installed API: only the nn/ TUs that
// define or dispatch a tier include this.
//
// Every function in a table must keep the ascending-k summation chain per
// C element (the determinism-per-tier contract in simd.hpp): the
// microkernel, gemv_axpy, and gemv_dot all reduce in ascending k with one
// chain per element, so for k <= kKernelKc the GEMV fast paths, the
// blocked path, and row-batched forwards agree bit-for-bit WITHIN a tier.
// The scalar tier multiplies-then-adds; the AVX2 tier fuses every
// multiply-add (vector lanes and ragged tails alike) so its chains are
// internally consistent too.
//
// The adam entry is the exception to "tiers may differ": it does no
// reduction, and every tier evaluates the same expression with no
// multiply-add contraction (its AVX2 entry lives in adam_avx2.cpp, built
// with -ffp-contract=off and without -mfma). Division and sqrt are
// correctly rounded per lane, so all tiers agree bit-for-bit.
#pragma once

#include <cstddef>

#include "nn/matrix.hpp"

namespace adsec::detail {

// Per-step Adam constants: moment decay rates, the step's bias corrections
// 1 - beta^t, learning rate, and epsilon.
struct AdamCoeffs {
  double b1, b2, bc1, bc2, lr, eps;
};

struct KernelTable {
  int mr;  // register-tile rows   (A packed [p][mr])
  int nr;  // register-tile cols   (B packed [p][nr])
  // acc (mr x nr, row-major) += sum over kc packed rank-1 updates.
  void (*micro)(int kc, const double* ap, const double* bp, double* acc);
  // crow[0..n) += a * brow[0..n)   (one saxpy step of the m < mr GEMV path).
  void (*gemv_axpy)(double* crow, double a, const double* brow, int n);
  // returns s + sum_p arow[p] * bcol[p], ascending p (nt-variant GEMV path).
  double (*gemv_dot)(double s, const double* arow, const double* bcol, int k);
  // row[j] = act(row[j] + bias[j]); bias may be null. Must match the scalar
  // epilogue bitwise on every input (including -0.0 and NaN for ReLU).
  void (*epilogue)(double* row, const double* bias, Activation act, int n);
  // One Adam update of n parameters in place: m, v moments from grad g,
  // then p -= lr * mhat / (sqrt(vhat) + eps). g is read only.
  void (*adam)(double* p, const double* g, double* m, double* v, std::size_t n,
               const AdamCoeffs& c);
};

// Upper bounds over all tiers, for stack accumulator tiles in the driver.
inline constexpr int kMaxMr = 4;
inline constexpr int kMaxNr = 8;

const KernelTable& scalar_kernel_table();

// Defined in matrix_avx2.cpp. Returns nullptr when that TU was compiled
// without AVX2+FMA support (non-x86 targets, or a toolchain without
// -mavx2), which is how the default build stays portable with no CMake
// feature defines.
const KernelTable* avx2_kernel_table();

// Defined in adam_avx2.cpp (compiled with -mavx2 and no contraction);
// referenced only by the AVX2 table.
void adam_avx2(double* p, const double* g, double* m, double* v, std::size_t n,
               const AdamCoeffs& c);

// The table for simd::active_tier(), resolving it on first use.
const KernelTable& active_kernel_table();

}  // namespace adsec::detail
