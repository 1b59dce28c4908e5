#include "index/ust_delta.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/reachability.h"

namespace ust {

Result<UstDelta> UstDelta::Build(const DbSnapshot& db, uint64_t base_version) {
  if (base_version < db.delta_floor() || base_version > db.version()) {
    return Status::OutOfRange(
        "no delta bridges base epoch " + std::to_string(base_version) +
        " to epoch " + std::to_string(db.version()) +
        ": the change log covers epochs " + std::to_string(db.delta_floor()) +
        " to " + std::to_string(db.version()));
  }
  UstDelta delta;
  delta.base_version_ = base_version;
  delta.version_ = db.version();
  std::vector<ObjectId> ids = db.ChangedSince(base_version);
  delta.objects_.reserve(ids.size());
  HopReachability reach;
  for (ObjectId id : ids) {
    const UncertainObject& obj = db.object(id);
    DeltaObject d;
    d.object = id;
    d.first_tic = obj.first_tic();
    d.last_tic = obj.last_tic();
    UST_RETURN_NOT_OK(AppendObjectSegments(db, obj, &reach, &d.entries));
    delta.objects_.push_back(std::move(d));
  }
  return delta;
}

bool UstDelta::Contains(ObjectId id) const {
  auto it = std::lower_bound(
      objects_.begin(), objects_.end(), id,
      [](const DeltaObject& d, ObjectId v) { return d.object < v; });
  return it != objects_.end() && it->object == id;
}

}  // namespace ust
