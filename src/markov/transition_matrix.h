// Row-sparse stochastic transition matrices M_ij = P(o(t+1) = s_j | o(t) = s_i)
// (Section 3.1 of the paper). The experiments of the paper use one
// time-homogeneous matrix shared by all objects; this class models that case.
// Time-inhomogeneity enters through the forward-backward adaptation, which
// produces per-tic matrices (see model/posterior_model.h).
//
// A matrix is immutable once built, so its support graphs (what the
// UST-tree's reachability diamonds walk) are computed once per matrix, on
// first use, and shared by every index build, delta build and compaction
// that reads objects moving under it.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "markov/propagate_workspace.h"
#include "markov/sparse_dist.h"
#include "state/state_space.h"
#include "util/status.h"

namespace ust {

/// \brief Immutable row-stochastic sparse matrix over a state space.
class TransitionMatrix {
 public:
  using Entry = std::pair<StateId, double>;  ///< (target state, probability)

  TransitionMatrix() = default;

  /// Build from per-row entry lists. Rows are sorted by target id.
  /// Fails unless every non-empty row sums to 1 within `tolerance`
  /// (empty rows are treated as absorbing and get an implicit self-loop).
  static Result<TransitionMatrix> FromRows(
      size_t num_states, std::vector<std::vector<Entry>> rows,
      double tolerance = 1e-9);

  size_t num_states() const {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }
  size_t num_nonzeros() const { return entries_.size(); }

  /// Row of `s` as a contiguous span.
  const Entry* begin(StateId s) const {
    return entries_.data() + row_offsets_[s];
  }
  const Entry* end(StateId s) const {
    return entries_.data() + row_offsets_[s + 1];
  }
  size_t row_size(StateId s) const {
    return row_offsets_[s + 1] - row_offsets_[s];
  }

  /// P(o(t+1) = to | o(t) = from); 0 when no entry exists.
  double Prob(StateId from, StateId to) const;

  /// One forward time transition: returns M^T * dist (sparse).
  /// The overload without a workspace allocates a transient one; loops
  /// should pass a reused workspace to stay allocation-free.
  SparseDist Propagate(const SparseDist& dist) const;
  SparseDist Propagate(const SparseDist& dist, PropagateWorkspace* ws) const;

  /// \brief The matrix's support as graphs, for reachability.
  struct SupportGraphs {
    CsrGraph forward;   ///< an edge per entry (weight = probability)
    CsrGraph reversed;  ///< forward.Reversed()
    /// Every state has an entry to itself. Then "reachable in exactly k
    /// steps" equals "reachable within k steps" (graph/reachability.h).
    bool self_loops = false;
  };

  /// The support graphs, computed on the first call and returned by every
  /// later one. Thread-safe: concurrent first calls compute once and all
  /// get the same object. Copies of a matrix share it (same rows).
  const SupportGraphs& Support() const;

  /// Same support, but probabilities replaced by a uniform distribution over
  /// each row (the paper's FBU ablation in Figure 12).
  TransitionMatrix Uniformized() const;

 private:
  struct SupportMemo {
    std::once_flag once;
    SupportGraphs graphs;
  };

  std::vector<size_t> row_offsets_;
  std::vector<Entry> entries_;
  /// Shared between copies, which hold the same rows; a matrix with new
  /// rows (FromRows, Uniformized) starts from a default-constructed one.
  std::shared_ptr<SupportMemo> support_ = std::make_shared<SupportMemo>();
};

/// Shared ownership alias: many objects reference one matrix.
using TransitionMatrixPtr = std::shared_ptr<const TransitionMatrix>;

}  // namespace ust
