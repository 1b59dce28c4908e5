#include "index/ust_tree.h"

#include <algorithm>
#include <limits>

#include "graph/reachability.h"
#include "index/ust_delta.h"

#include "util/check.h"

namespace ust {

namespace {

// Grow `mbr` over the coordinates of `states` (a min/max fold: the result
// does not depend on the order of the states).
void ExtendOver(const StateSpace& space, const std::vector<StateId>& states,
                Rect2* mbr) {
  for (StateId s : states) {
    const Point2& p = space.coord(s);
    mbr->Extend({p.x, p.y});
  }
}

}  // namespace

Status AppendObjectSegments(const DbSnapshot& db, const UncertainObject& obj,
                            HopReachability* reach,
                            std::vector<UstTree::SegmentEntry>* out) {
  const TransitionMatrix::SupportGraphs& support = obj.matrix().Support();
  const auto& items = obj.observations().items();
  if (items.size() == 1 && obj.last_tic() == items[0].time) {
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = entry.t_hi = items[0].time;
    const Point2& p = db.space().coord(items[0].state);
    entry.mbr = MakeRect2(p.x, p.y, p.x, p.y);
    out->push_back(entry);
    return Status::OK();
  }
  for (size_t i = 0; i + 1 < items.size(); ++i) {
    const int steps = static_cast<int>(items[i + 1].time - items[i].time);
    Rect2 mbr;
    bool contradiction = false;
    if (support.self_loops) {
      const std::vector<StateId>& diamond =
          reach->Diamond(support.forward, support.reversed, items[i].state,
                         items[i + 1].state, steps);
      contradiction = diamond.empty();
      ExtendOver(db.space(), diamond, &mbr);
    } else {
      // Without a self-loop everywhere, a state within k hops need not be
      // reachable in exactly k: walk the diamond slice by slice.
      auto diamond = DiamondReachability(support.forward, support.reversed,
                                         items[i].state, items[i + 1].state,
                                         steps);
      for (const auto& slice : diamond) {
        if (slice.empty()) {
          contradiction = true;
          break;
        }
        ExtendOver(db.space(), slice, &mbr);
      }
    }
    if (contradiction) {
      return Status::Contradiction(
          "object " + std::to_string(obj.id()) +
          " has contradicting observations in segment " + std::to_string(i));
    }
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = items[i].time;
    entry.t_hi = items[i + 1].time;
    entry.mbr = mbr;
    out->push_back(entry);
  }
  // Lifetime extension past the last observation: the bound is the plain
  // forward-reachable cone (no later observation caps it) — the union of
  // the exactly-k sets, which is the within-k set on any graph.
  if (obj.last_tic() > items.back().time) {
    const int steps = static_cast<int>(obj.last_tic() - items.back().time);
    Rect2 mbr;
    ExtendOver(db.space(),
               reach->Within(support.forward, items.back().state, steps),
               &mbr);
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = items.back().time;
    entry.t_hi = obj.last_tic();
    entry.mbr = mbr;
    out->push_back(entry);
  }
  return Status::OK();
}

Result<UstTree> UstTree::Build(const DbSnapshot& db) {
  UstTree tree;
  tree.db_ = db.WithoutIndex();
  HopReachability reach;
  for (size_t obj_index = 0; obj_index < db.size(); ++obj_index) {
    const UncertainObject& obj = db.object(static_cast<ObjectId>(obj_index));
    UST_RETURN_NOT_OK(AppendObjectSegments(db, obj, &reach, &tree.entries_));
  }
  return tree;
}

Result<UstTree> UstTree::Splice(const DbSnapshot& db, const UstTree& base) {
  UST_ASSIGN_OR_RETURN(UstDelta delta,
                       UstDelta::Build(db, base.built_version()));
  UstTree tree;
  tree.db_ = db.WithoutIndex();
  size_t delta_entries = 0;
  for (const UstDelta::DeltaObject& d : delta.objects()) {
    delta_entries += d.entries.size();
  }
  tree.entries_.reserve(base.entries_.size() + delta_entries);
  // Both sides ascend by object id: copy the base up to each changed
  // object, put the object's fresh entries in place of its base run (an
  // object added after the base has none), and skip that run.
  auto copied = base.entries_.begin();
  for (const UstDelta::DeltaObject& d : delta.objects()) {
    auto run = std::lower_bound(
        copied, base.entries_.end(), d.object,
        [](const SegmentEntry& e, ObjectId id) { return e.object < id; });
    tree.entries_.insert(tree.entries_.end(), copied, run);
    tree.entries_.insert(tree.entries_.end(), d.entries.begin(),
                         d.entries.end());
    copied = run;
    while (copied != base.entries_.end() && copied->object == d.object) {
      ++copied;
    }
  }
  tree.entries_.insert(tree.entries_.end(), copied, base.entries_.end());
  return tree;
}

UstTree::TimeSlab UstTree::MakeTimeSlab(const TimeInterval& T) const {
  // Only time is searched: the dmax bound needs every object alive in T,
  // wherever it is.
  TimeSlab slab;
  slab.T = T;
  for (const SegmentEntry& e : entries_) {
    if (e.t_lo <= T.end && e.t_hi >= T.start) slab.entries.push_back(&e);
  }
  return slab;
}

std::vector<UstTree::DistanceProfile> UstTree::BuildProfiles(
    const QueryTrajectory& q, const TimeInterval& T, const TimeSlab* slab,
    const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t len = T.length();
  TimeSlab local;
  if (slab == nullptr) {
    local = MakeTimeSlab(T);
    slab = &local;
  }
  UST_DCHECK(slab->T == T);

  // Accumulate one covering rectangle into a profile. Multiple rectangles
  // can cover an observation tic; both bounds hold, so keep the tighter of
  // each — a max/min fold, independent of the order rectangles arrive in.
  auto accumulate = [&](DistanceProfile* profile, const SegmentEntry& seg) {
    Tic lo = std::max(T.start, seg.t_lo);
    Tic hi = std::min(T.end, seg.t_hi);
    for (Tic t = lo; t <= hi; ++t) {
      const size_t rel = static_cast<size_t>(t - T.start);
      double dmin = MinDistance(q.At(t), seg.mbr);
      double dmax = MaxDistance(q.At(t), seg.mbr);
      if (profile->dmin[rel] == kInf) {
        profile->dmin[rel] = dmin;
        profile->dmax[rel] = dmax;
      } else {
        profile->dmin[rel] = std::max(profile->dmin[rel], dmin);
        profile->dmax[rel] = std::min(profile->dmax[rel], dmax);
      }
    }
  };
  auto new_profile = [&](ObjectId object, Tic first_tic, Tic last_tic) {
    DistanceProfile profile;
    profile.object = object;
    profile.first_tic = first_tic;
    profile.last_tic = last_tic;
    profile.dmin.assign(len, kInf);
    profile.dmax.assign(len, kInf);
    return profile;
  };

  std::vector<DistanceProfile> profiles;

  // Emit the profile of one delta object if its lifetime overlaps T. Delta
  // entries tile the whole lifetime, so the overlap test matches exactly the
  // set of objects a rebuilt tree's slab would hold.
  auto emit_delta = [&](const UstDelta::DeltaObject& d) {
    if (d.first_tic > T.end || d.last_tic < T.start) return;
    DistanceProfile profile = new_profile(d.object, d.first_tic, d.last_tic);
    for (const SegmentEntry& seg : d.entries) {
      if (seg.t_lo > T.end || seg.t_hi < T.start) continue;
      accumulate(&profile, seg);
    }
    profiles.push_back(std::move(profile));
  };

  // Merge the slab's per-object runs (ascending id) with the (id-sorted)
  // delta objects. Delta objects replace their base counterparts outright:
  // a rewritten object's base rectangles describe its pre-write lifetime
  // and are stale.
  size_t di = 0;
  const size_t dn = delta == nullptr ? 0 : delta->objects().size();
  const std::vector<const SegmentEntry*>& segs = slab->entries;
  for (size_t begin = 0, end = 0; begin < segs.size(); begin = end) {
    const ObjectId object = segs[begin]->object;
    end = begin + 1;
    while (end < segs.size() && segs[end]->object == object) ++end;
    while (di < dn && delta->objects()[di].object < object) {
      emit_delta(delta->objects()[di++]);
    }
    if (di < dn && delta->objects()[di].object == object) {
      emit_delta(delta->objects()[di++]);
      continue;
    }
    const UncertainObject& obj = db_.object(object);
    DistanceProfile profile =
        new_profile(object, obj.first_tic(), obj.last_tic());
    for (size_t i = begin; i < end; ++i) accumulate(&profile, *segs[i]);
    profiles.push_back(std::move(profile));
  }
  while (di < dn) emit_delta(delta->objects()[di++]);
  return profiles;
}

namespace {

// k-th smallest finite dmax at each tic; +inf where fewer than k objects are
// alive (then nothing can be pruned at that tic).
std::vector<double> PruningDistances(
    const std::vector<UstTree::DistanceProfile>& profiles, size_t len, int k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prune(len, kInf);
  std::vector<double> values;
  for (size_t rel = 0; rel < len; ++rel) {
    values.clear();
    for (const auto& p : profiles) {
      if (p.dmax[rel] != kInf) values.push_back(p.dmax[rel]);
    }
    if (values.size() >= static_cast<size_t>(k)) {
      std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
      prune[rel] = values[k - 1];
    }
  }
  return prune;
}

}  // namespace

PruneResult UstTree::PruneForall(const QueryTrajectory& q,
                                 const TimeInterval& T, int k,
                                 const TimeSlab* slab,
                                 const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto profiles = BuildProfiles(q, T, slab, delta);
  const size_t len = T.length();
  auto prune = PruningDistances(profiles, len, k);
  PruneResult result;
  for (const auto& p : profiles) {
    bool influencer = false;
    bool candidate = p.first_tic <= T.start && p.last_tic >= T.end;
    for (size_t rel = 0; rel < len; ++rel) {
      if (p.dmin[rel] == kInf) continue;  // not alive at this tic
      if (p.dmin[rel] <= prune[rel]) {
        influencer = true;
      } else {
        candidate = false;  // beaten for sure at this tic
      }
    }
    if (candidate && influencer) result.candidates.push_back(p.object);
    if (influencer) result.influencers.push_back(p.object);
  }
  return result;
}

PruneResult UstTree::PruneExists(const QueryTrajectory& q,
                                 const TimeInterval& T, int k,
                                 const TimeSlab* slab,
                                 const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto profiles = BuildProfiles(q, T, slab, delta);
  const size_t len = T.length();
  auto prune = PruningDistances(profiles, len, k);
  PruneResult result;
  for (const auto& p : profiles) {
    for (size_t rel = 0; rel < len; ++rel) {
      if (p.dmin[rel] != kInf && p.dmin[rel] <= prune[rel]) {
        result.candidates.push_back(p.object);
        result.influencers.push_back(p.object);
        break;
      }
    }
  }
  return result;
}

}  // namespace ust
