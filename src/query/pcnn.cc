#include "query/pcnn.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/check.h"

namespace ust {

namespace {

// Checks whether every (k-1)-subset of `candidate` is in the previous level.
bool AllSubsetsQualify(const std::vector<Tic>& candidate,
                       const std::set<std::vector<Tic>>& prev_level) {
  std::vector<Tic> subset;
  subset.reserve(candidate.size() - 1);
  for (size_t skip = 0; skip < candidate.size(); ++skip) {
    subset.clear();
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) subset.push_back(candidate[i]);
    }
    if (prev_level.find(subset) == prev_level.end()) return false;
  }
  return true;
}

}  // namespace

PcnnResult PcnnForObject(const NnTable& table, size_t obj_index, double tau) {
  PcnnResult result;
  // Level 1: single timestamps (line 1 of Algorithm 1). Direct tic iteration
  // and the single-tic popcount probe keep this loop allocation-free.
  std::set<std::vector<Tic>> level;
  const TimeInterval& T = table.interval();
  for (Tic t = T.start; t <= T.end; ++t) {
    ++result.validations;
    ++result.candidates_generated;
    double p = table.ProbAt(obj_index, t);
    if (p >= tau) {
      level.insert({t});
      result.entries.push_back({table.objects()[obj_index], {t}, p});
    }
  }
  // Levels k >= 2 (lines 2-5): join sets sharing a (k-2)-prefix, prune by
  // the Apriori property, then validate with the shared sampled worlds.
  while (level.size() >= 2) {
    std::set<std::vector<Tic>> next_level;
    std::vector<std::vector<Tic>> sets(level.begin(), level.end());
    for (size_t a = 0; a < sets.size(); ++a) {
      for (size_t b = a + 1; b < sets.size(); ++b) {
        // Sets are sorted lexicographically; join requires equal prefixes
        // except the last element (classical Apriori candidate generation).
        if (!std::equal(sets[a].begin(), sets[a].end() - 1, sets[b].begin(),
                        sets[b].end() - 1)) {
          continue;
        }
        std::vector<Tic> candidate = sets[a];
        candidate.push_back(sets[b].back());
        UST_DCHECK(std::is_sorted(candidate.begin(), candidate.end()));
        if (!AllSubsetsQualify(candidate, level)) continue;
        ++result.candidates_generated;
        ++result.validations;
        double p = table.ForallProb(obj_index, candidate);
        if (p >= tau) {
          result.entries.push_back(
              {table.objects()[obj_index], candidate, p});
          next_level.insert(std::move(candidate));
        }
      }
    }
    level = std::move(next_level);
  }
  return result;
}

Result<PcnnResult> PcnnOnTable(const NnTable& table,
                               const std::vector<ObjectId>& candidates,
                               double tau) {
  PcnnResult result;
  for (ObjectId o : candidates) {
    size_t idx = table.IndexOf(o);
    if (idx == NnTable::npos) {
      return Status::InvalidArgument("candidate not among participants");
    }
    PcnnResult per_object = PcnnForObject(table, idx, tau);
    result.validations += per_object.validations;
    result.candidates_generated += per_object.candidates_generated;
    result.entries.insert(result.entries.end(), per_object.entries.begin(),
                          per_object.entries.end());
  }
  return result;
}

std::vector<PcnnEntry> FilterMaximal(const std::vector<PcnnEntry>& entries) {
  std::vector<PcnnEntry> maximal;
  for (size_t i = 0; i < entries.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < entries.size() && !dominated; ++j) {
      if (i == j || entries[i].object != entries[j].object) continue;
      if (entries[j].tics.size() <= entries[i].tics.size()) continue;
      dominated = std::includes(entries[j].tics.begin(), entries[j].tics.end(),
                                entries[i].tics.begin(), entries[i].tics.end());
    }
    if (!dominated) maximal.push_back(entries[i]);
  }
  return maximal;
}

}  // namespace ust
