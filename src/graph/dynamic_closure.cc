#include "graph/dynamic_closure.h"

#include <algorithm>

namespace olite::graph {

namespace {

// Components with nothing downstream all alias one empty reach list.
const std::shared_ptr<const NodeId[]>& EmptyReach() {
  static const std::shared_ptr<const NodeId[]> empty =
      std::make_shared<NodeId[]>(1);
  return empty;
}

constexpr NodeId kNoStamp = static_cast<NodeId>(-1);

}  // namespace

DynamicClosure::DynamicClosure(const Digraph& g) {
  ComputeComponents(g);
  const NodeId nc = scc_.NumComponents();
  std::vector<NodeId> seen(nc, kNoStamp);
  std::vector<NodeId> scratch;
  // Component ids ascend in reverse topological order, so every successor
  // component's reach set is final when we merge c.
  for (NodeId c = 0; c < nc; ++c) MergeComponent(g, c, &seen, &scratch);
  FinalizeArcCount();
}

void DynamicClosure::ComputeComponents(const Digraph& g) {
  scc_ = ComputeScc(g);
  const NodeId nc = scc_.NumComponents();
  rep_.resize(nc);
  for (NodeId c = 0; c < nc; ++c) {
    const auto& m = scc_.members[c];
    rep_[c] = *std::min_element(m.begin(), m.end());
  }
  reach_.resize(nc);
}

void DynamicClosure::MergeComponent(const Digraph& g, NodeId c,
                                    std::vector<NodeId>* seen,
                                    std::vector<NodeId>* scratch) {
  // Visiting each successor component of c once (stamped with c) walks c's
  // row of the condensation without building it.
  scratch->clear();
  for (NodeId u : scc_.members[c]) {
    for (NodeId v : g.Successors(u)) {
      const NodeId d = scc_.component_of[v];
      if (d == c || (*seen)[d] == c) continue;
      (*seen)[d] = c;
      scratch->push_back(rep_[d]);
      const auto rd = Items(reach_[d]);
      scratch->insert(scratch->end(), rd.begin(), rd.end());
    }
  }
  if (scratch->empty()) {
    reach_[c] = EmptyReach();
    return;
  }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  auto list = std::make_shared_for_overwrite<NodeId[]>(scratch->size() + 1);
  list[0] = static_cast<NodeId>(scratch->size());
  std::copy(scratch->begin(), scratch->end(), list.get() + 1);
  reach_[c] = std::move(list);
}

void DynamicClosure::FinalizeArcCount() {
  num_arcs_ = 0;
  const auto& members = scc_.members;
  for (NodeId c = 0; c < scc_.NumComponents(); ++c) {
    uint64_t targets = scc_.cyclic[c] ? members[c].size() : 0;
    for (NodeId r : Items(reach_[c])) {
      targets += members[scc_.component_of[r]].size();
    }
    num_arcs_ += targets * members[c].size();
  }
}

bool DynamicClosure::Reaches(NodeId from, NodeId to) const {
  const NodeId cf = scc_.component_of[from];
  const NodeId ct = scc_.component_of[to];
  // Components downstream of cf have smaller ids (reverse topological
  // order), so most misses end here without a search.
  if (ct >= cf) return ct == cf && scc_.cyclic[cf];
  const auto r = Items(reach_[cf]);
  return std::binary_search(r.begin(), r.end(), rep_[ct]);
}

std::vector<NodeId> DynamicClosure::ReachableFrom(NodeId from) const {
  const NodeId cf = scc_.component_of[from];
  std::vector<NodeId> out;
  auto add_component = [&](NodeId c) {
    const auto& m = scc_.members[c];
    out.insert(out.end(), m.begin(), m.end());
  };
  if (scc_.cyclic[cf]) add_component(cf);
  for (NodeId r : Items(reach_[cf])) add_component(scc_.component_of[r]);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<DynamicClosure> DynamicClosure::Patched(
    const Digraph& base, const Digraph& next, const PatchOptions& options,
    PatchStats* stats) const {
  auto out = std::unique_ptr<DynamicClosure>(new DynamicClosure());
  out->ComputeComponents(next);
  const SccResult& scc = out->scc_;

  const auto old_n = static_cast<NodeId>(scc_.component_of.size());
  const NodeId new_n = next.NumNodes();
  const NodeId nc = scc.NumComponents();
  const NodeId shared_n = std::min(old_n, new_n);

  // Per-node arc diff: the successor lists must match exactly, else the
  // node's component is a dirty seed (a changed arc's tail — the DRed
  // over-deletion/insertion frontier).
  std::vector<bool> dirty(nc, false);
  for (NodeId u = 0; u < shared_n; ++u) {
    if (base.Successors(u) != next.Successors(u)) {
      dirty[scc.component_of[u]] = true;
    }
  }
  for (NodeId u = shared_n; u < new_n; ++u) dirty[scc.component_of[u]] = true;

  // Membership diff: a component may only alias an old reach list when
  // it is *the same node set* as some old component (same-size check plus
  // same old component id for every member implies set equality).
  std::vector<NodeId> old_comp_of(nc, 0);
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) continue;
    const auto& m = scc.members[c];
    bool preserved = m[0] < old_n;
    NodeId oc = preserved ? scc_.component_of[m[0]] : 0;
    if (preserved && scc_.members[oc].size() != m.size()) preserved = false;
    if (preserved) {
      for (NodeId v : m) {
        if (v >= old_n || scc_.component_of[v] != oc) {
          preserved = false;
          break;
        }
      }
    }
    if (!preserved) {
      dirty[c] = true;
    } else {
      old_comp_of[c] = oc;
    }
  }

  // Upstream propagation: successors have smaller ids, so one ascending
  // sweep settles transitive dirtiness.
  auto has_dirty_successor = [&](NodeId c) {
    for (NodeId u : scc.members[c]) {
      for (NodeId v : next.Successors(u)) {
        if (dirty[scc.component_of[v]]) return true;
      }
    }
    return false;
  };
  uint64_t dirty_nodes = 0;
  uint64_t dirty_comps = 0;
  for (NodeId c = 0; c < nc; ++c) {
    if (!dirty[c] && has_dirty_successor(c)) dirty[c] = true;
    if (dirty[c]) {
      dirty_nodes += scc.members[c].size();
      ++dirty_comps;
    }
  }

  const bool fall_back =
      new_n > 0 && static_cast<double>(dirty_nodes) >
                       options.fallback_fraction * static_cast<double>(new_n);
  if (stats != nullptr) {
    stats->fell_back = fall_back;
    stats->patched_nodes = fall_back ? new_n : dirty_nodes;
    stats->dirty_components = fall_back ? nc : dirty_comps;
    stats->reused_components = fall_back ? 0 : nc - dirty_comps;
  }

  std::vector<NodeId> seen(nc, kNoStamp);
  std::vector<NodeId> scratch;
  for (NodeId c = 0; c < nc; ++c) {
    if (!fall_back && !dirty[c]) {
      out->reach_[c] = reach_[old_comp_of[c]];  // alias, no copy
    } else {
      out->MergeComponent(next, c, &seen, &scratch);  // re-derive
    }
  }
  out->FinalizeArcCount();
  return out;
}

}  // namespace olite::graph
