#ifndef CAFE_COMMON_SIMD_H_
#define CAFE_COMMON_SIMD_H_

#include <cstdint>
#include <cstring>

namespace cafe {
namespace simd {

/// Vector kernels for the embedding hot loops: the LookupBatch row gather,
/// the ApplyGradientBatch clip+SGD scatter, the BatchDeduper
/// clip+accumulate, and the dense-layer axpy updates.
///
/// Each op is written once, as a plain scalar loop in simd.cc, and compiled
/// for the build's target ISA (the compiler vectorises it at -O3). The
/// embedding loops are memory-bound, so there are no per-ISA variants.
///
/// Exactness contract: every kernel performs the per-element IEEE op
/// sequence of the loop as written — clamp, then one multiply, then one
/// subtract/add; simd.cc builds with -ffp-contract=off so no target fuses
/// the multiply-add into an FMA — so results are bit-identical to the
/// longhand loop, NaN and inf included, and the scalar-vs-batched parity
/// battery holds on every host.

/// Kernel flavour perfbench records in its report. Always "scalar": one
/// plain loop per op.
const char* ActiveTierName();

/// dst[0..d) = src[0..d). The LookupBatch gather body. A memcpy: the C
/// library already dispatches it by CPU.
inline void CopyRow(float* dst, const float* src, uint32_t d) {
  std::memcpy(dst, src, d * sizeof(float));
}

/// row[k] -= lr * g[k] — the scatter body for pre-accumulated (already
/// clipped) gradients and the dense SGD step.
void AxpyNeg(float* row, const float* g, uint32_t d, float lr);

/// row[k] -= lr * clamp(g[k], -bound, +bound) — the fused clip+SGD scatter
/// body (bound = +inf when clipping is off, matching embed_internal::
/// ClipBound).
void AxpyClipNeg(float* row, const float* g, uint32_t d, float lr,
                 float bound);

/// acc[k] += clamp(g[k], -bound, +bound) — the BatchDeduper clip-on-read
/// accumulate body.
void AccumClip(float* acc, const float* g, uint32_t d, float bound);

/// dst[k] += a * src[k] — the dense-layer backward outer-product rows.
void AddScaled(float* dst, const float* src, uint32_t d, float a);

/// dst[k] = a[k] + b[k] — the QR additive-combine lookup body.
void AddRows(float* dst, const float* a, const float* b, uint32_t d);

/// dst[k] = a[k] * b[k] — the QR multiplicative-combine lookup body.
void MulRows(float* dst, const float* a, const float* b, uint32_t d);

}  // namespace simd
}  // namespace cafe

#endif  // CAFE_COMMON_SIMD_H_
