// Quickstart: the paper's Figure 1 example, end to end.
//
// Two uncertain objects move over four states on a line. We ask all three
// probabilistic nearest-neighbor queries against the query point q and the
// time interval T = {1, 2, 3}, and compare the Monte-Carlo estimates with the
// exact possible-world enumeration worked out in the paper:
//   P∃NN(o2) = 0.25, P∀NN(o1) = 0.75,
//   PCNNQ(tau = 0.1) = { (o1, {1,2,3}), (o2, {2,3}) }.
#include <cstdio>
#include <memory>

#include "query/exact.h"
#include "query/pcnn.h"
#include "query/session.h"

using namespace ust;

namespace {

TransitionMatrixPtr MakeMatrix(
    size_t n, std::vector<std::vector<TransitionMatrix::Entry>> rows) {
  auto result = TransitionMatrix::FromRows(n, std::move(rows));
  UST_CHECK(result.ok());
  return std::make_shared<const TransitionMatrix>(result.MoveValue());
}

}  // namespace

int main() {
  // --- 1. State space: four states at distances 1..4 from the query. -------
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const StateId s1 = 0, s2 = 1, s3 = 2, s4 = 3;

  // --- 2. Per-object Markov chains (Figure 1's transition probabilities). --
  auto m1 = MakeMatrix(4, {{{s1, 1.0}},
                           {{s1, 0.5}, {s3, 0.5}},
                           {{s1, 0.5}, {s3, 0.5}},
                           {{s4, 1.0}}});
  auto m2 = MakeMatrix(4, {{{s1, 1.0}},
                           {{s2, 1.0}},
                           {{s2, 0.5}, {s4, 0.5}},
                           {{s4, 1.0}}});

  // --- 3. Database: one observation per object, lifetime until t = 3. ------
  TrajectoryDatabase db(space);
  auto obs1 = ObservationSeq::Create({{1, s2}});
  auto obs2 = ObservationSeq::Create({{1, s3}});
  UST_CHECK(obs1.ok() && obs2.ok());
  ObjectId o1 = db.AddObject(obs1.MoveValue(), m1, /*end_tic=*/3);
  ObjectId o2 = db.AddObject(obs2.MoveValue(), m2, /*end_tic=*/3);

  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{1, 3};

  // --- 4. Exact reference by possible-world enumeration. -------------------
  auto exact = ExactPnnByEnumeration(db, {o1, o2}, q, T);
  UST_CHECK(exact.ok());
  std::printf("exact:        P-forall-NN(o1) = %.4f   P-exists-NN(o2) = %.4f\n",
              exact.value()[0].forall_prob, exact.value()[1].exists_prob);

  // --- 5. The same through a query session, sampling possible worlds. -----
  // A world this small would be planned onto enumeration; pin the spec to
  // the Monte-Carlo backend to see the sampled estimates.
  QuerySession session(db);
  QuerySpec spec;
  spec.q = q;
  spec.T = T;
  spec.tau = 0.1;
  spec.mc.num_worlds = 20000;
  spec.backend = ExecutorKind::kMonteCarlo;
  spec.kind = QueryKind::kForall;
  const QueryOutcome forall = session.Run(spec);
  spec.kind = QueryKind::kExists;
  const QueryOutcome exists = session.Run(spec);
  UST_CHECK(forall.status.ok() && exists.status.ok());
  for (const auto& r : forall.pnn.results) {
    std::printf("P-forall-NNQ: object o%u qualifies with prob %.4f\n",
                r.object + 1, r.prob);
  }
  for (const auto& r : exists.pnn.results) {
    std::printf("P-exists-NNQ: object o%u qualifies with prob %.4f\n",
                r.object + 1, r.prob);
  }

  // --- 6. Continuous query: which sub-intervals does each object own? ------
  spec.kind = QueryKind::kContinuous;
  const QueryOutcome pcnn = session.Run(spec);
  UST_CHECK(pcnn.status.ok());
  auto maximal = FilterMaximal(pcnn.pcnn.pcnn.entries);
  for (const auto& e : maximal) {
    std::printf("PCNNQ:        object o%u, tics {", e.object + 1);
    for (size_t i = 0; i < e.tics.size(); ++i) {
      std::printf("%s%d", i ? "," : "", e.tics[i]);
    }
    std::printf("}, prob %.4f\n", e.prob);
  }
  return 0;
}
