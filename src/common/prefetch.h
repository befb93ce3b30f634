#ifndef CAFE_COMMON_PREFETCH_H_
#define CAFE_COMMON_PREFETCH_H_

#include <cstddef>

namespace cafe {

/// Software prefetch hints for the batched gather/scatter loops. Embedding
/// rows are random-access over tables far larger than any cache level, so
/// issuing the next few row addresses ahead of the copy loop overlaps the
/// DRAM latency that otherwise dominates lookup cost.
#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchRead(const void* addr) { __builtin_prefetch(addr, 0, 1); }
inline void PrefetchWrite(const void* addr) { __builtin_prefetch(addr, 1, 1); }
#else
inline void PrefetchRead(const void*) {}
inline void PrefetchWrite(const void*) {}
#endif

/// How many rows ahead the batched loops prefetch. Deep enough to cover
/// DRAM latency at one row per few nanoseconds of copy work, shallow enough
/// that hints are not evicted before use.
constexpr size_t PrefetchDistance() { return 8; }

}  // namespace cafe

#endif  // CAFE_COMMON_PREFETCH_H_
