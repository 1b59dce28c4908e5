#include "markov/transition_matrix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"

namespace ust {

Result<TransitionMatrix> TransitionMatrix::FromRows(
    size_t num_states, std::vector<std::vector<Entry>> rows, double tolerance) {
  if (rows.size() != num_states) {
    return Status::InvalidArgument("row count does not match state count");
  }
  TransitionMatrix m;
  m.row_offsets_.reserve(num_states + 1);
  m.row_offsets_.push_back(0);
  size_t total = 0;
  for (const auto& row : rows) total += std::max<size_t>(row.size(), 1);
  m.entries_.reserve(total);
  for (StateId s = 0; s < num_states; ++s) {
    auto& row = rows[s];
    if (row.empty()) {
      m.entries_.push_back({s, 1.0});  // absorbing state: implicit self-loop
      m.row_offsets_.push_back(m.entries_.size());
      continue;
    }
    std::sort(row.begin(), row.end());
    double sum = 0.0;
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].first >= num_states) {
        return Status::InvalidArgument("transition target out of range");
      }
      if (row[i].second < 0.0) {
        return Status::InvalidArgument("negative transition probability");
      }
      if (i > 0 && row[i].first == row[i - 1].first) {
        return Status::InvalidArgument("duplicate transition target in row " +
                                       std::to_string(s));
      }
      sum += row[i].second;
    }
    if (std::abs(sum - 1.0) > tolerance) {
      return Status::InvalidArgument("row " + std::to_string(s) +
                                     " does not sum to 1 (sum=" +
                                     std::to_string(sum) + ")");
    }
    // Renormalize exactly to reduce drift over long chains.
    for (auto& [to, p] : row) p /= sum;
    m.entries_.insert(m.entries_.end(), row.begin(), row.end());
    m.row_offsets_.push_back(m.entries_.size());
  }
  return m;
}

double TransitionMatrix::Prob(StateId from, StateId to) const {
  const Entry* lo = begin(from);
  const Entry* hi = end(from);
  auto it = std::lower_bound(lo, hi, to, [](const Entry& e, StateId v) {
    return e.first < v;
  });
  if (it != hi && it->first == to) return it->second;
  return 0.0;
}

SparseDist TransitionMatrix::Propagate(const SparseDist& dist) const {
  PropagateWorkspace ws(num_states());
  return Propagate(dist, &ws);
}

SparseDist TransitionMatrix::Propagate(const SparseDist& dist,
                                       PropagateWorkspace* ws) const {
  ws->BeginScatter(num_states());
  const std::vector<StateId>& from_ids = dist.ids();
  const std::vector<double>& from_probs = dist.probs();
  for (size_t i = 0; i < from_ids.size(); ++i) {
    const double p = from_probs[i];
    for (const Entry* e = begin(from_ids[i]); e != end(from_ids[i]); ++e) {
      ws->Add(e->first, e->second * p);
    }
  }
  const std::vector<StateId>& touched = ws->SortTouched();
  std::vector<StateId> ids(touched);
  std::vector<double> probs;
  probs.reserve(ids.size());
  for (StateId s : ids) probs.push_back(ws->sum(s));
  return SparseDist::FromSorted(std::move(ids), std::move(probs));
}

const TransitionMatrix::SupportGraphs& TransitionMatrix::Support() const {
  std::call_once(support_->once, [this] {
    SupportGraphs& g = support_->graphs;
    std::vector<std::vector<Edge>> adj(num_states());
    g.self_loops = true;
    for (StateId s = 0; s < num_states(); ++s) {
      adj[s].reserve(row_size(s));
      bool self_loop = false;
      for (const Entry* e = begin(s); e != end(s); ++e) {
        adj[s].push_back({e->first, e->second});
        self_loop |= e->first == s;
      }
      g.self_loops &= self_loop;
    }
    g.forward = CsrGraph::FromAdjacency(adj);
    g.reversed = g.forward.Reversed();
  });
  return support_->graphs;
}

TransitionMatrix TransitionMatrix::Uniformized() const {
  TransitionMatrix m;
  m.row_offsets_ = row_offsets_;
  m.entries_ = entries_;
  for (StateId s = 0; s < num_states(); ++s) {
    size_t n = row_size(s);
    double p = 1.0 / static_cast<double>(n);
    for (size_t i = row_offsets_[s]; i < row_offsets_[s + 1]; ++i) {
      m.entries_[i].second = p;
    }
  }
  return m;
}

}  // namespace ust
