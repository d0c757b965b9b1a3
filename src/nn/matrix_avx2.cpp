// AVX2/FMA kernel tier. The ONLY translation unit in the tree allowed to
// touch <immintrin.h> (machine-checked by the adsec_lint intrinsics-
// isolation rule): it is compiled with -mavx2 -mfma while the rest of the
// build keeps the portable baseline ISA, and the dispatcher in simd.cpp
// only selects this table after a runtime CPUID probe.
//
// Determinism within the tier (see kernel_table.hpp): every multiply-add —
// vector lanes in the microkernel and GEMV bodies, and the ragged scalar
// tails via std::fma (a single vfmadd instruction in this -mfma TU) — is
// fused, ascending k, one chain per C element. So the m < mr GEMV path, a
// 1 x k row through the blocked path, and the same row inside a batched
// B x k forward all produce bit-identical doubles while this tier is
// active. The fallback stub below keeps non-x86 / old-toolchain builds
// linking without any CMake feature defines.
#include "nn/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace adsec {
namespace {

constexpr int kMr = 4;
constexpr int kNr = 8;

// 4 x 8 register tile: 8 ymm accumulators + 2 B vectors + 1 broadcast stay
// inside the 16 architectural ymm registers. Panels are packed contiguously
// from a 32-byte-aligned buffer base (A as [p][4], B as [p][8]), so the
// panel loads are aligned by construction; `acc` is the driver's
// alignas(32) stack tile.
void micro_kernel_avx2(int kc, const double* __restrict ap,
                       const double* __restrict bp, double* __restrict acc) {
  __m256d c00 = _mm256_load_pd(acc + 0);
  __m256d c01 = _mm256_load_pd(acc + 4);
  __m256d c10 = _mm256_load_pd(acc + 8);
  __m256d c11 = _mm256_load_pd(acc + 12);
  __m256d c20 = _mm256_load_pd(acc + 16);
  __m256d c21 = _mm256_load_pd(acc + 20);
  __m256d c30 = _mm256_load_pd(acc + 24);
  __m256d c31 = _mm256_load_pd(acc + 28);
  for (int p = 0; p < kc; ++p) {
    const double* __restrict av = ap + static_cast<std::size_t>(p) * kMr;
    const double* __restrict bv = bp + static_cast<std::size_t>(p) * kNr;
    const __m256d b0 = _mm256_load_pd(bv);
    const __m256d b1 = _mm256_load_pd(bv + 4);
    __m256d a = _mm256_broadcast_sd(av + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(av + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(av + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(av + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_store_pd(acc + 0, c00);
  _mm256_store_pd(acc + 4, c01);
  _mm256_store_pd(acc + 8, c10);
  _mm256_store_pd(acc + 12, c11);
  _mm256_store_pd(acc + 16, c20);
  _mm256_store_pd(acc + 20, c21);
  _mm256_store_pd(acc + 24, c30);
  _mm256_store_pd(acc + 28, c31);
}

// crow/brow are matrix rows at arbitrary leading-dimension offsets:
// unaligned loads. The scalar tail uses std::fma so the per-element chain
// is the same fused op as the vector lanes.
void gemv_axpy_avx2(double* __restrict crow, double a,
                    const double* __restrict brow, int n) {
  const __m256d av = _mm256_set1_pd(a);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d c = _mm256_loadu_pd(crow + j);
    _mm256_storeu_pd(crow + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + j), c));
  }
  for (; j < n; ++j) crow[j] = std::fma(a, brow[j], crow[j]);
}

// Deliberately scalar: one fused chain ascending p, matching the
// microkernel's per-element chain exactly. Only the backward-pass nt
// shapes reach this path, so there is no throughput case for a horizontal
// reduction (which would reassociate the sum and break the contract).
double gemv_dot_avx2(double s, const double* __restrict arow,
                     const double* __restrict bcol, int k) {
  for (int p = 0; p < k; ++p) s = std::fma(arow[p], bcol[p], s);
  return s;
}

// Bias add then activation, per element, exactly like the scalar tier's
// epilogue (vaddpd is bitwise scalar addition per lane; the ReLU mask
// keeps -0.0 and NaN like the scalar `v < 0 ? 0 : v` does; tanh has no
// vector libm here so it stays scalar).
void epilogue_avx2(double* __restrict row, const double* __restrict bias,
                   Activation act, int n) {
  int j = 0;
  if (bias != nullptr) {
    for (; j + 4 <= n; j += 4) {
      const __m256d v = _mm256_add_pd(_mm256_loadu_pd(row + j),
                                      _mm256_loadu_pd(bias + j));
      _mm256_storeu_pd(row + j, v);
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
  switch (act) {
    case Activation::Identity:
      return;
    case Activation::ReLU: {
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(row + i);
        const __m256d neg = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
        _mm256_storeu_pd(row + i, _mm256_andnot_pd(neg, v));
      }
      for (; i < n; ++i) {
        if (row[i] < 0.0) row[i] = 0.0;
      }
      return;
    }
    case Activation::Tanh:
      for (int i = 0; i < n; ++i) row[i] = std::tanh(row[i]);
      return;
  }
}

}  // namespace

namespace detail {

const KernelTable* avx2_kernel_table() {
  static const KernelTable table{kMr, kNr, micro_kernel_avx2, gemv_axpy_avx2,
                                 gemv_dot_avx2, epilogue_avx2, adam_avx2};
  return &table;
}

}  // namespace detail
}  // namespace adsec

#else  // portable stub: tier reported unsupported, dispatcher never selects it

namespace adsec::detail {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace adsec::detail

#endif
