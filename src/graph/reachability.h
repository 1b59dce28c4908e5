// Per-step reachability sets over a graph (transition-matrix support).
// These are the "diamonds" of the UST-tree (Section 6): the states an object
// can occupy at tic t between two observations are the intersection of the
// forward-reachable set from the earlier observation and the
// backward-reachable set from the later one.
//
// The UST-tree needs only the union of a diamond's slices (its MBR), and for
// a lifetime extension only the union of the forward slices (its cone).
// HopReachability computes those unions from hop distances in O(states
// reached): the cone is the states within `steps` hops of the source on any
// graph, and with a self-loop on every node, where "reachable in exactly k
// steps" equals "reachable within k steps", the diamond is
// {s : d_fwd(s) + d_bwd(s) <= steps}. The per-slice kernels below stay the
// reference, and DiamondReachability the fallback for a graph with a node
// that lacks a self-loop.
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "state/state_space.h"

namespace ust {

/// \brief Sets of states reachable in exactly 0, 1, ..., `steps` transitions
/// from `source` (index k holds the k-step set, each sorted ascending).
std::vector<std::vector<StateId>> ForwardReachability(const CsrGraph& graph,
                                                      StateId source,
                                                      int steps);

/// \brief The per-tic "diamond" between two observations:
/// result[k] = {states reachable from `from` in k steps AND able to reach
/// `to` in (steps - k) steps}, k = 0..steps. `reversed` must be
/// graph.Reversed(). Empty sets indicate contradicting observations.
std::vector<std::vector<StateId>> DiamondReachability(const CsrGraph& graph,
                                                      const CsrGraph& reversed,
                                                      StateId from, StateId to,
                                                      int steps);

/// \brief Slice unions of the kernels above from bounded breadth-first
/// searches. The object is the BFS scratch: per-node hop counts that each
/// call resets through its list of reached nodes, so after the first call a
/// kernel costs O(nodes reached), not O(graph). Reuse one object across the
/// calls of one build; it is not thread-safe.
class HopReachability {
 public:
  /// Every state reachable from `source` within `steps` transitions, in BFS
  /// order: the union of ForwardReachability(graph, source, steps)'s slices,
  /// on any graph (a state at hop distance d <= steps is in slice d). The
  /// reference lives in this object until its next call.
  const std::vector<StateId>& Within(const CsrGraph& graph, StateId source,
                                     int steps);

  /// For a graph with a self-loop on every node: the union of
  /// DiamondReachability(graph, reversed, from, to, steps)'s slices, i.e.
  /// {s : d_fwd(s) + d_bwd(s) <= steps}, in BFS order from `to`. Empty
  /// exactly when DiamondReachability has an empty slice (the observations
  /// contradict), which is when d_fwd(to) > steps. On a graph with a node
  /// lacking a self-loop the result may be a strict superset; callers use
  /// DiamondReachability there.
  const std::vector<StateId>& Diamond(const CsrGraph& graph,
                                      const CsrGraph& reversed, StateId from,
                                      StateId to, int steps);

 private:
  std::vector<int> fwd_, bwd_;              // hop counts; kUnreached if unset
  std::vector<StateId> fwd_seen_, bwd_seen_;  // BFS queues = reset lists
};

}  // namespace ust
