#include "graph/reachability.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace ust {

namespace {

constexpr int kUnreached = std::numeric_limits<int>::max();

// Forget the previous call's hop counts (O(nodes it reached)) and size the
// array for `graph`.
void Reset(const CsrGraph& graph, std::vector<int>* hops,
           std::vector<StateId>* seen) {
  for (StateId v : *seen) (*hops)[v] = kUnreached;
  seen->clear();
  if (hops->size() < graph.num_nodes()) {
    hops->resize(graph.num_nodes(), kUnreached);
  }
}

// Breadth-first search from `source` to depth `steps`. `seen` is the queue:
// on return it lists every node within `steps` hops, in BFS order, and
// (*hops)[v] is v's hop distance.
void BoundedBfs(const CsrGraph& graph, StateId source, int steps,
                std::vector<int>* hops, std::vector<StateId>* seen) {
  UST_CHECK(source < graph.num_nodes());
  UST_CHECK(steps >= 0);
  Reset(graph, hops, seen);
  (*hops)[source] = 0;
  seen->push_back(source);
  for (size_t head = 0; head < seen->size(); ++head) {
    const StateId v = (*seen)[head];
    const int d = (*hops)[v];
    if (d == steps) break;  // BFS order: every later node is at depth steps
    for (const Edge* e = graph.begin(v); e != graph.end(v); ++e) {
      if ((*hops)[e->to] == kUnreached) {
        (*hops)[e->to] = d + 1;
        seen->push_back(e->to);
      }
    }
  }
}

}  // namespace

std::vector<std::vector<StateId>> ForwardReachability(const CsrGraph& graph,
                                                      StateId source,
                                                      int steps) {
  UST_CHECK(source < graph.num_nodes());
  UST_CHECK(steps >= 0);
  std::vector<std::vector<StateId>> result;
  result.reserve(steps + 1);
  result.push_back({source});
  std::vector<char> mark(graph.num_nodes(), 0);
  for (int k = 1; k <= steps; ++k) {
    std::vector<StateId> next;
    for (StateId v : result[k - 1]) {
      for (const Edge* e = graph.begin(v); e != graph.end(v); ++e) {
        if (!mark[e->to]) {
          mark[e->to] = 1;
          next.push_back(e->to);
        }
      }
    }
    std::sort(next.begin(), next.end());
    for (StateId v : next) mark[v] = 0;
    result.push_back(std::move(next));
  }
  return result;
}

std::vector<std::vector<StateId>> DiamondReachability(const CsrGraph& graph,
                                                      const CsrGraph& reversed,
                                                      StateId from, StateId to,
                                                      int steps) {
  auto fwd = ForwardReachability(graph, from, steps);
  auto bwd = ForwardReachability(reversed, to, steps);
  std::vector<std::vector<StateId>> diamond(steps + 1);
  for (int k = 0; k <= steps; ++k) {
    const auto& a = fwd[k];
    const auto& b = bwd[steps - k];
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(diamond[k]));
  }
  return diamond;
}

const std::vector<StateId>& HopReachability::Within(const CsrGraph& graph,
                                                    StateId source,
                                                    int steps) {
  BoundedBfs(graph, source, steps, &fwd_, &fwd_seen_);
  return fwd_seen_;
}

const std::vector<StateId>& HopReachability::Diamond(const CsrGraph& graph,
                                                     const CsrGraph& reversed,
                                                     StateId from, StateId to,
                                                     int steps) {
  UST_CHECK(to < reversed.num_nodes());
  BoundedBfs(graph, from, steps, &fwd_, &fwd_seen_);
  Reset(reversed, &bwd_, &bwd_seen_);
  if (fwd_[to] == kUnreached) return bwd_seen_;  // d_fwd(to) > steps
  // Backward BFS from `to` that enqueues only diamond members. A member's
  // shortest path to `to` runs through members only (each node on it has
  // d_fwd + d_bwd no larger than the member's), so the restricted search
  // still reaches every member, at its true d_bwd.
  bwd_[to] = 0;
  bwd_seen_.push_back(to);
  for (size_t head = 0; head < bwd_seen_.size(); ++head) {
    const StateId v = bwd_seen_[head];
    const int d = bwd_[v] + 1;
    for (const Edge* e = reversed.begin(v); e != reversed.end(v); ++e) {
      const StateId u = e->to;
      if (bwd_[u] != kUnreached || fwd_[u] == kUnreached ||
          fwd_[u] + d > steps) {
        continue;
      }
      bwd_[u] = d;
      bwd_seen_.push_back(u);
    }
  }
  return bwd_seen_;
}

}  // namespace ust
