// AVX2 tier of Adam's per-element update (kernel_table.hpp `adam`).
//
// Plain C++, no intrinsics: this TU is built with -mavx2 -ffp-contract=off
// -fno-math-errno and WITHOUT -mfma, so GCC vectorises the loop into
// vmulpd/vaddpd/vdivpd/vsqrtpd and never fuses a multiply-add. Those are
// correctly rounded per lane, so the result is bit-identical to the scalar
// tier's loop in matrix.cpp. (matrix_avx2.cpp cannot host this: it is built
// with -mfma and GCC's default -ffp-contract=fast, under which
// `b1 * m + (1 - b1) * g` would fuse.) -fno-math-errno only lets sqrt
// vectorise; vhat >= 0, so errno would never be set.
#include "nn/kernel_table.hpp"

#if defined(__AVX2__)

#include <cmath>

namespace adsec::detail {

void adam_avx2(double* __restrict p, const double* __restrict g,
               double* __restrict m, double* __restrict v, std::size_t n,
               const AdamCoeffs& c) {
  const double b1 = c.b1, b2 = c.b2, bc1 = c.bc1, bc2 = c.bc2;
  const double lr = c.lr, eps = c.eps;
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = g[i];
    m[i] = b1 * m[i] + (1.0 - b1) * gi;
    v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace adsec::detail

#endif
