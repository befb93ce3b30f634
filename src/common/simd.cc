#include "common/simd.h"

#include <algorithm>

namespace cafe {
namespace simd {

const char* ActiveTierName() { return "scalar"; }

void AxpyNeg(float* row, const float* g, uint32_t d, float lr) {
  for (uint32_t k = 0; k < d; ++k) row[k] -= lr * g[k];
}

void AxpyClipNeg(float* row, const float* g, uint32_t d, float lr,
                 float bound) {
  for (uint32_t k = 0; k < d; ++k) {
    row[k] -= lr * std::clamp(g[k], -bound, bound);
  }
}

void AccumClip(float* acc, const float* g, uint32_t d, float bound) {
  for (uint32_t k = 0; k < d; ++k) acc[k] += std::clamp(g[k], -bound, bound);
}

void AddScaled(float* dst, const float* src, uint32_t d, float a) {
  for (uint32_t k = 0; k < d; ++k) dst[k] += a * src[k];
}

void AddRows(float* dst, const float* a, const float* b, uint32_t d) {
  for (uint32_t k = 0; k < d; ++k) dst[k] = a[k] + b[k];
}

void MulRows(float* dst, const float* a, const float* b, uint32_t d) {
  for (uint32_t k = 0; k < d; ++k) dst[k] = a[k] * b[k];
}

}  // namespace simd
}  // namespace cafe
