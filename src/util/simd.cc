#include "util/simd.h"

#include <atomic>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UST_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace ust {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. The AVX2 ones must match these bit-for-bit
// (trivially: the results are integer popcount sums).
// ---------------------------------------------------------------------------

inline uint64_t PopCount64(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<uint64_t>(__builtin_popcountll(v));
#else
  uint64_t count = 0;
  while (v != 0) {
    v &= v - 1;
    ++count;
  }
  return count;
#endif
}

template <bool kAnd>
uint64_t RowsScalar(const uint64_t* const* rows, size_t num_rows, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t acc = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) {
      acc = kAnd ? acc & rows[r][i] : acc | rows[r][i];
    }
    sum += PopCount64(acc);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64). Compiled with a per-function target attribute so
// the translation unit builds on any x86-64 toolchain; they are only
// *called* after __builtin_cpu_supports("avx2") says yes. Popcount is the
// classic vpshufb nibble-lookup + vpsadbw fold (integer-exact); loads are
// unaligned, so rows may start at any word.
// ---------------------------------------------------------------------------

#if UST_HAVE_AVX2_KERNELS

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  // Four lane-wise uint64 byte-sums; summed across calls by the caller.
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline uint64_t HorizontalSum256(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

template <bool kAnd>
__attribute__((target("avx2"))) uint64_t RowsAvx2(const uint64_t* const* rows,
                                                  size_t num_rows, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + i));
    for (size_t r = 1; r < num_rows; ++r) {
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + i));
      v = kAnd ? _mm256_and_si256(v, w) : _mm256_or_si256(v, w);
    }
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t sum = HorizontalSum256(acc);
  for (; i < n; ++i) {
    uint64_t w = rows[0][i];
    for (size_t r = 1; r < num_rows; ++r) {
      w = kAnd ? w & rows[r][i] : w | rows[r][i];
    }
    sum += PopCount64(w);
  }
  return sum;
}

#endif  // UST_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------------
// Dispatch: one atomic flag, resolved from the CPU on first use.
// ---------------------------------------------------------------------------

std::atomic<bool>& UseAvx2() {
  static std::atomic<bool> use_avx2{DetectSimdLevel() == SimdLevel::kAvx2};
  return use_avx2;
}

}  // namespace

SimdLevel DetectSimdLevel() {
#if UST_HAVE_AVX2_KERNELS
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool ForceSimdLevel(SimdLevel level) {
  if (level != SimdLevel::kScalar && level != DetectSimdLevel()) return false;
  UseAvx2().store(level == SimdLevel::kAvx2, std::memory_order_release);
  return true;
}

uint64_t AndRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                         size_t n) {
  if (num_rows == 0) return 64u * static_cast<uint64_t>(n);
#if UST_HAVE_AVX2_KERNELS
  if (UseAvx2().load(std::memory_order_acquire)) {
    return RowsAvx2<true>(rows, num_rows, n);
  }
#endif
  return RowsScalar<true>(rows, num_rows, n);
}

uint64_t OrRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                        size_t n) {
  if (num_rows == 0) return 0;
#if UST_HAVE_AVX2_KERNELS
  if (UseAvx2().load(std::memory_order_acquire)) {
    return RowsAvx2<false>(rows, num_rows, n);
  }
#endif
  return RowsScalar<false>(rows, num_rows, n);
}

}  // namespace ust
