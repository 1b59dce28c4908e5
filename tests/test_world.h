// Shared fixtures for the test suite: the paper's Figure 1 example world and
// small parametric worlds used across modules.
#pragma once

#include <memory>
#include <vector>

#include "markov/builders.h"
#include "markov/transition_matrix.h"
#include "model/trajectory_database.h"
#include "query/query.h"
#include "query/session.h"
#include "util/check.h"

namespace ust::testing {

/// Build a transition matrix or abort (tests construct valid inputs).
inline TransitionMatrixPtr MakeMatrix(
    size_t num_states, std::vector<std::vector<TransitionMatrix::Entry>> rows) {
  auto result = TransitionMatrix::FromRows(num_states, std::move(rows));
  UST_CHECK(result.ok());
  return std::make_shared<const TransitionMatrix>(result.MoveValue());
}

/// A spec of `kind` over (q, T) at threshold `tau`, pinned to the
/// Monte-Carlo backend, so QuerySession::Run samples whatever the planner
/// would pick.
inline QuerySpec MonteCarloSpec(QueryKind kind, const QueryTrajectory& q,
                                const TimeInterval& T, double tau,
                                const MonteCarloOptions& mc) {
  QuerySpec spec;
  spec.kind = kind;
  spec.q = q;
  spec.T = T;
  spec.tau = tau;
  spec.mc = mc;
  spec.backend = ExecutorKind::kMonteCarlo;
  return spec;
}

/// \brief The exact scenario of the paper's Figure 1 / Example 1.
///
/// Four states on a line at distances 1, 2, 3, 4 from the query point (0,0).
/// o1 starts at s2 (t=1) and has three possible trajectories with
/// probabilities 0.5 / 0.25 / 0.25; o2 starts at s3 and has two, each 0.5.
/// Ground truth (worked out in the paper):
///   P∃NN(o2, q, D, {1,2,3}) = 0.25
///   P∀NN(o1, q, D, {1,2,3}) = 0.75
///   PCNNQ(q, D, {1,2,3}, 0.1) = { (o1, {1,2,3}), (o2, {2,3}) } (maximal).
struct Figure1World {
  std::shared_ptr<const StateSpace> space;
  std::shared_ptr<TrajectoryDatabase> db;
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{1, 3};
  ObjectId o1 = 0, o2 = 0;
  StateId s1 = 0, s2 = 1, s3 = 2, s4 = 3;
};

inline Figure1World MakeFigure1World() {
  Figure1World world;
  world.space = std::make_shared<const StateSpace>(std::vector<Point2>{
      {0, 1}, {0, 2}, {0, 3}, {0, 4}});  // s1..s4 at distances 1..4 from q
  // o1: s2 -> {s1: .5, s3: .5}; s1 absorbing; s3 -> {s1: .5, s3: .5}.
  auto m1 = MakeMatrix(4, {{{world.s1, 1.0}},
                           {{world.s1, 0.5}, {world.s3, 0.5}},
                           {{world.s1, 0.5}, {world.s3, 0.5}},
                           {{world.s4, 1.0}}});
  // o2: s3 -> {s2: .5, s4: .5}; s2 and s4 absorbing.
  auto m2 = MakeMatrix(4, {{{world.s1, 1.0}},
                           {{world.s2, 1.0}},
                           {{world.s2, 0.5}, {world.s4, 0.5}},
                           {{world.s4, 1.0}}});
  world.db = std::make_shared<TrajectoryDatabase>(world.space);
  auto obs1 = ObservationSeq::Create({{1, world.s2}});
  auto obs2 = ObservationSeq::Create({{1, world.s3}});
  UST_CHECK(obs1.ok() && obs2.ok());
  world.o1 = world.db->AddObject(obs1.MoveValue(), m1, /*end_tic=*/3);
  world.o2 = world.db->AddObject(obs2.MoveValue(), m2, /*end_tic=*/3);
  return world;
}

/// \brief A one-dimensional random-walk world: `n` states equally spaced on
/// a line, each stepping left/right/staying with the given probabilities.
/// Useful for hand-checkable adaptation and sampling tests.
struct LineWorld {
  std::shared_ptr<const StateSpace> space;
  TransitionMatrixPtr matrix;
};

inline LineWorld MakeLineWorld(size_t n, double p_left = 0.25,
                               double p_stay = 0.5) {
  UST_CHECK(n >= 2);
  std::vector<Point2> coords;
  coords.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    coords.push_back({static_cast<double>(i), 0.0});
  }
  const double p_right = 1.0 - p_left - p_stay;
  UST_CHECK(p_right >= 0.0);
  std::vector<std::vector<TransitionMatrix::Entry>> rows(n);
  for (StateId s = 0; s < n; ++s) {
    double stay = p_stay;
    if (s == 0) {
      stay += p_left;  // reflecting boundaries keep rows stochastic
    } else {
      rows[s].push_back({s - 1, p_left});
    }
    if (s + 1 == n) {
      stay += p_right;
    } else {
      rows[s].push_back({s + 1, p_right});
    }
    rows[s].push_back({s, stay});
  }
  LineWorld world;
  world.space = std::make_shared<const StateSpace>(std::move(coords));
  world.matrix = MakeMatrix(n, std::move(rows));
  return world;
}

}  // namespace ust::testing
