#include "core/taxonomy.h"

#include <algorithm>
#include <map>

namespace olite::core {

Taxonomy Taxonomy::Build(const Classification& classification) {
  Taxonomy out;
  const NodeTable& nt = classification.tbox_graph().nodes;
  const uint32_t n = nt.num_concepts();
  out.node_of_.assign(n, 0);

  // Group satisfiable concepts by their full subsumer set; concepts with
  // identical subsumer sets that subsume each other are equivalent.
  // Equivalence here: a ≡ b iff a ⊑ b and b ⊑ a.
  std::vector<bool> unsat(n, false);
  for (dllite::ConceptId a : classification.UnsatisfiableConcepts()) {
    unsat[a] = true;
    out.unsatisfiable_.push_back(a);
  }

  std::vector<int32_t> rep(n, -1);  // representative concept per node
  for (uint32_t a = 0; a < n; ++a) {
    if (unsat[a]) continue;
    bool merged = false;
    for (uint32_t b = 0; b < a && !merged; ++b) {
      if (unsat[b] || rep[b] != static_cast<int32_t>(b)) continue;
      bool ab = classification.Entails(dllite::BasicConcept::Atomic(a),
                                       dllite::BasicConcept::Atomic(b));
      bool ba = classification.Entails(dllite::BasicConcept::Atomic(b),
                                       dllite::BasicConcept::Atomic(a));
      if (ab && ba) {
        rep[a] = static_cast<int32_t>(b);
        merged = true;
      }
    }
    if (!merged) rep[a] = static_cast<int32_t>(a);
  }

  // Create one node per representative.
  std::map<uint32_t, uint32_t> node_index;
  for (uint32_t a = 0; a < n; ++a) {
    if (unsat[a]) continue;
    uint32_t r = static_cast<uint32_t>(rep[a]);
    auto it = node_index.find(r);
    if (it == node_index.end()) {
      it = node_index.emplace(r, static_cast<uint32_t>(out.nodes_.size()))
               .first;
      out.nodes_.push_back(Node{});
    }
    out.nodes_[it->second].members.push_back(a);
    out.node_of_[a] = it->second;
  }

  // Strict subsumption between nodes via their representatives; then keep
  // only the direct (Hasse) edges.
  const size_t m = out.nodes_.size();
  std::vector<std::vector<bool>> lt(m, std::vector<bool>(m, false));
  auto rep_of = [&](uint32_t node) { return out.nodes_[node].members[0]; };
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      lt[i][j] = classification.Entails(
          dllite::BasicConcept::Atomic(rep_of(static_cast<uint32_t>(i))),
          dllite::BasicConcept::Atomic(rep_of(static_cast<uint32_t>(j))));
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!lt[i][j]) continue;
      bool direct = true;
      for (size_t k = 0; k < m && direct; ++k) {
        if (k != i && k != j && lt[i][k] && lt[k][j]) direct = false;
      }
      if (direct) {
        out.nodes_[i].direct_parents.push_back(static_cast<uint32_t>(j));
        out.nodes_[j].direct_children.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  for (auto& node : out.nodes_) {
    std::sort(node.direct_parents.begin(), node.direct_parents.end());
    std::sort(node.direct_children.begin(), node.direct_children.end());
  }

  // Depths in topological order (Kahn, from the roots): a node is settled
  // once all of its parents are, so each edge is relaxed exactly once.
  out.depth_.assign(m, 0);
  std::vector<size_t> pending(m);
  std::vector<uint32_t> ready;
  for (uint32_t i = 0; i < m; ++i) {
    pending[i] = out.nodes_[i].direct_parents.size();
    if (pending[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    uint32_t i = ready.back();
    ready.pop_back();
    for (uint32_t child : out.nodes_[i].direct_children) {
      out.depth_[child] = std::max(out.depth_[child], out.depth_[i] + 1);
      if (--pending[child] == 0) ready.push_back(child);
    }
  }
  return out;
}

std::vector<uint32_t> Taxonomy::Roots() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].direct_parents.empty()) out.push_back(i);
  }
  return out;
}

std::string Taxonomy::ToString(const dllite::Vocabulary& vocab) const {
  std::string out;
  // Depth-first from roots with indentation; nodes with several parents
  // appear under each of them (standard tree-view duplication).
  std::vector<std::pair<uint32_t, unsigned>> stack;
  auto roots = Roots();
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    out.append(depth * 2, ' ');
    const auto& members = nodes_[node].members;
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += " = ";
      out += vocab.ConceptName(members[i]);
    }
    out += '\n';
    const auto& children = nodes_[node].direct_children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  if (!unsatisfiable_.empty()) {
    out += "unsatisfiable:";
    for (auto a : unsatisfiable_) out += " " + vocab.ConceptName(a);
    out += '\n';
  }
  return out;
}

}  // namespace olite::core
