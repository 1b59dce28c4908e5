#include "io/text_io.h"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace ust {

namespace {

constexpr char kStateSpaceHeader[] = "ustq-statespace v1";
constexpr char kMatrixHeader[] = "ustq-matrix v1";
constexpr char kObservationsHeader[] = "ustq-observations v1";
constexpr char kTrajectoriesHeader[] = "ustq-trajectories v1";

// Counts in a header are untrusted: no loader reserves by one. Vectors grow
// as lines arrive, so a count larger than the lines present fails as
// truncated instead of allocating for it.

// Reads one non-empty, non-comment line.
bool NextLine(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    if (!line->empty() && (*line)[0] != '#') return true;
  }
  return false;
}

Status ExpectHeader(std::istream& is, const char* header) {
  std::string line;
  if (!NextLine(is, &line) || line != header) {
    return Status::InvalidArgument(std::string("missing header '") + header +
                                   "'");
  }
  return Status::OK();
}

}  // namespace

Status SaveStateSpace(const StateSpace& space, std::ostream& os) {
  os << kStateSpaceHeader << "\n" << space.size() << "\n";
  os.precision(17);
  for (const Point2& p : space.coords()) {
    os << p.x << " " << p.y << "\n";
  }
  return os.good() ? Status::OK() : Status::Internal("stream write failed");
}

Result<StateSpace> LoadStateSpace(std::istream& is) {
  UST_RETURN_NOT_OK(ExpectHeader(is, kStateSpaceHeader));
  std::string line;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("missing state count");
  }
  size_t count = 0;
  try {
    count = std::stoull(line);
  } catch (...) {
    return Status::InvalidArgument("malformed state count: " + line);
  }
  std::vector<Point2> coords;
  for (size_t i = 0; i < count; ++i) {
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument("truncated state space file");
    }
    std::istringstream ls(line);
    Point2 p;
    if (!(ls >> p.x >> p.y)) {
      return Status::InvalidArgument("malformed coordinate line: " + line);
    }
    coords.push_back(p);
  }
  return StateSpace(std::move(coords));
}

Status SaveTransitionMatrix(const TransitionMatrix& matrix, std::ostream& os) {
  os << kMatrixHeader << "\n"
     << matrix.num_states() << " " << matrix.num_nonzeros() << "\n";
  os.precision(17);
  for (StateId s = 0; s < matrix.num_states(); ++s) {
    for (const auto* e = matrix.begin(s); e != matrix.end(s); ++e) {
      os << s << " " << e->first << " " << e->second << "\n";
    }
  }
  return os.good() ? Status::OK() : Status::Internal("stream write failed");
}

Result<TransitionMatrix> LoadTransitionMatrix(std::istream& is) {
  UST_RETURN_NOT_OK(ExpectHeader(is, kMatrixHeader));
  std::string line;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("missing matrix size line");
  }
  size_t num_states = 0, nnz = 0;
  {
    std::istringstream ls(line);
    if (!(ls >> num_states >> nnz)) {
      return Status::InvalidArgument("malformed matrix size line: " + line);
    }
  }
  if (num_states > std::numeric_limits<StateId>::max()) {
    return Status::InvalidArgument("matrix state count exceeds the StateId "
                                   "range: " + line);
  }
  std::vector<std::vector<TransitionMatrix::Entry>> rows(num_states);
  for (size_t i = 0; i < nnz; ++i) {
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument("truncated matrix file");
    }
    std::istringstream ls(line);
    StateId from = 0, to = 0;
    double prob = 0;
    if (!(ls >> from >> to >> prob)) {
      return Status::InvalidArgument("malformed matrix entry: " + line);
    }
    if (from >= num_states) {
      return Status::InvalidArgument("matrix entry row out of range");
    }
    rows[from].push_back({to, prob});
  }
  return TransitionMatrix::FromRows(num_states, std::move(rows));
}

Status SaveObservations(const TrajectoryDatabase& db, std::ostream& os) {
  os << kObservationsHeader << "\n" << db.size() << "\n";
  for (size_t i = 0; i < db.size(); ++i) {
    const UncertainObject& obj = db.object(static_cast<ObjectId>(i));
    os << obj.last_tic() << " " << obj.observations().size() << "\n";
    for (const Observation& o : obj.observations().items()) {
      os << o.time << " " << o.state << "\n";
    }
  }
  return os.good() ? Status::OK() : Status::Internal("stream write failed");
}

Result<TrajectoryDatabase> LoadObservations(
    std::istream& is, std::shared_ptr<const StateSpace> space,
    TransitionMatrixPtr matrix) {
  UST_RETURN_NOT_OK(ExpectHeader(is, kObservationsHeader));
  std::string line;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("missing object count");
  }
  size_t count = 0;
  try {
    count = std::stoull(line);
  } catch (...) {
    return Status::InvalidArgument("malformed object count: " + line);
  }
  TrajectoryDatabase db(std::move(space));
  for (size_t i = 0; i < count; ++i) {
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument("truncated observations file");
    }
    Tic end_tic = 0;
    size_t num_obs = 0;
    {
      std::istringstream ls(line);
      if (!(ls >> end_tic >> num_obs)) {
        return Status::InvalidArgument("malformed object header: " + line);
      }
    }
    std::vector<Observation> observations;
    for (size_t k = 0; k < num_obs; ++k) {
      if (!NextLine(is, &line)) {
        return Status::InvalidArgument("truncated observation list");
      }
      std::istringstream ls(line);
      Observation o;
      if (!(ls >> o.time >> o.state)) {
        return Status::InvalidArgument("malformed observation: " + line);
      }
      observations.push_back(o);
    }
    auto seq = ObservationSeq::Create(std::move(observations));
    if (!seq.ok()) return seq.status();
    if (db.space().size() > 0) {
      for (const Observation& o : seq.value().items()) {
        if (o.state >= db.space().size()) {
          return Status::InvalidArgument(
              "observation state outside the state space");
        }
      }
    }
    db.AddObject(seq.MoveValue(), matrix, end_tic);
  }
  return db;
}

Status SaveTrajectories(const std::vector<Trajectory>& trajectories,
                        std::ostream& os) {
  os << kTrajectoriesHeader << "\n" << trajectories.size() << "\n";
  for (const Trajectory& t : trajectories) {
    os << t.start << " " << t.states.size() << "\n";
    for (size_t i = 0; i < t.states.size(); ++i) {
      os << t.states[i] << (i + 1 < t.states.size() ? ' ' : '\n');
    }
  }
  return os.good() ? Status::OK() : Status::Internal("stream write failed");
}

Result<std::vector<Trajectory>> LoadTrajectories(std::istream& is) {
  UST_RETURN_NOT_OK(ExpectHeader(is, kTrajectoriesHeader));
  std::string line;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("missing trajectory count");
  }
  size_t count = 0;
  try {
    count = std::stoull(line);
  } catch (...) {
    return Status::InvalidArgument("malformed trajectory count: " + line);
  }
  std::vector<Trajectory> result;
  for (size_t i = 0; i < count; ++i) {
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument("truncated trajectory file");
    }
    Trajectory t;
    size_t len = 0;
    {
      std::istringstream ls(line);
      if (!(ls >> t.start >> len) || len == 0) {
        return Status::InvalidArgument("malformed trajectory header: " + line);
      }
    }
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument("truncated trajectory states");
    }
    std::istringstream ls(line);
    for (size_t k = 0; k < len; ++k) {
      StateId s;
      if (!(ls >> s)) {
        return Status::InvalidArgument("malformed trajectory states: " + line);
      }
      t.states.push_back(s);
    }
    result.push_back(std::move(t));
  }
  return result;
}

// ------------------------------------------------------------------ files --

namespace {

template <typename SaveFn>
Status SaveToFile(const std::string& path, SaveFn&& save) {
  std::ofstream os(path);
  if (!os) return Status::NotFound("cannot open for writing: " + path);
  return save(os);
}

}  // namespace

Status SaveStateSpaceFile(const StateSpace& space, const std::string& path) {
  return SaveToFile(path, [&](std::ostream& os) {
    return SaveStateSpace(space, os);
  });
}

Result<StateSpace> LoadStateSpaceFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open: " + path);
  return LoadStateSpace(is);
}

Status SaveTransitionMatrixFile(const TransitionMatrix& matrix,
                                const std::string& path) {
  return SaveToFile(path, [&](std::ostream& os) {
    return SaveTransitionMatrix(matrix, os);
  });
}

Result<TransitionMatrix> LoadTransitionMatrixFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open: " + path);
  return LoadTransitionMatrix(is);
}

Status SaveObservationsFile(const TrajectoryDatabase& db,
                            const std::string& path) {
  return SaveToFile(path, [&](std::ostream& os) {
    return SaveObservations(db, os);
  });
}

Result<TrajectoryDatabase> LoadObservationsFile(
    const std::string& path, std::shared_ptr<const StateSpace> space,
    TransitionMatrixPtr matrix) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open: " + path);
  return LoadObservations(is, std::move(space), std::move(matrix));
}

}  // namespace ust
