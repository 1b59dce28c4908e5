// Probabilistic continuous NN query (Definition 3) via the Apriori-style
// Algorithm 1: timestamp sets grow level-wise and the anti-monotonicity of
// P∀NN (T_i ⊆ T_j ⇒ P∀NN(T_i) ≥ P∀NN(T_j)) prunes the candidate lattice.
// Every validation reuses the same sampled worlds (one NnTable per query).
#pragma once

#include <cstdint>
#include <vector>

#include "query/monte_carlo.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

/// \brief One qualifying (object, timestamp set) pair.
struct PcnnEntry {
  ObjectId object;
  std::vector<Tic> tics;  ///< sorted; not necessarily contiguous
  double prob;            ///< estimated P∀NN(o, q, D, tics)
};

/// \brief Result of a PCNN query plus work counters for the benchmarks.
struct PcnnResult {
  std::vector<PcnnEntry> entries;   ///< all qualifying timestamp sets (∪_k L_k)
  uint64_t validations = 0;         ///< probability evaluations performed
  uint64_t candidates_generated = 0;  ///< timestamp sets generated (X_k sizes)
};

/// \brief Algorithm 1 for a single object: all T_i ⊆ T with
/// P∀NN(o, q, D, T_i) >= tau, probabilities estimated from `table`.
/// `obj_index` addresses the object inside the table.
PcnnResult PcnnForObject(const NnTable& table, size_t obj_index, double tau);

/// \brief Algorithm 1 over every candidate against a prebuilt world table
/// (candidates must be among the table's objects): the aggregation of the
/// session's continuous executor.
Result<PcnnResult> PcnnOnTable(const NnTable& table,
                               const std::vector<ObjectId>& candidates,
                               double tau);

/// \brief Definition-3 post-processing: keep only entries whose timestamp set
/// is not a subset of another qualifying set of the same object.
std::vector<PcnnEntry> FilterMaximal(const std::vector<PcnnEntry>& entries);

}  // namespace ust
