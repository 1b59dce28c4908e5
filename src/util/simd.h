// The two word-packed world-set reductions of NnTable (PCNN's Algorithm 1):
// AND or OR a few rows of uint64 world words, then popcount. Each has a
// portable scalar reference and an AVX2 version, picked once at first use
// by what the running CPU supports. Both sum integer popcounts, so they
// return the exact same count — dispatch is a speed decision, never a
// numerical one (DESIGN.md section 7.3).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ust {

enum class SimdLevel {
  kScalar = 0,  // portable reference; always available
  kAvx2 = 1,    // x86-64 with AVX2 (256-bit)
};

/// Best level the running CPU supports; the level the kernels run at
/// unless a test forces another.
SimdLevel DetectSimdLevel();

/// Test hook: run the kernels at `level`. Returns false (and changes
/// nothing) when the CPU does not support `level`. Not thread-safe against
/// concurrent kernel calls — call from test setup.
bool ForceSimdLevel(SimdLevel level);

/// Multi-row AND fold: acc[i] over rows, then popcount. `rows` holds
/// `num_rows` pointers, each to `n` words; equivalent to popcounting
/// rows[0][i] & rows[1][i] & ... per word. num_rows == 0 returns 64 * n
/// (the empty AND is all-ones over whole words) — callers mask partial
/// trailing words before packing, per NnTable's contract.
uint64_t AndRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                         size_t n);

/// Multi-row OR fold, popcounted. num_rows == 0 returns 0.
uint64_t OrRowsPopcount(const uint64_t* const* rows, size_t num_rows,
                        size_t n);

}  // namespace ust
