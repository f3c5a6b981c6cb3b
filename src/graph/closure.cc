#include "graph/closure.h"

#include <algorithm>

#include "graph/dynamic_closure.h"
#include "graph/scc.h"

namespace olite::graph {

namespace {

// ---------------------------------------------------------------------------
// BFS engine: one breadth-first traversal per source node.
// ---------------------------------------------------------------------------
class BfsClosure : public TransitiveClosure {
 public:
  explicit BfsClosure(const Digraph& g) {
    const NodeId n = g.NumNodes();
    reach_.resize(n);
    Scratch scratch;
    scratch.visited.assign(n, 0);
    for (NodeId src = 0; src < n; ++src) Traverse(g, src, &scratch);
    for (const auto& r : reach_) num_arcs_ += r.size();
  }

  bool Reaches(NodeId from, NodeId to) const override {
    const auto& r = reach_[from];
    return std::binary_search(r.begin(), r.end(), to);
  }

  std::vector<NodeId> ReachableFrom(NodeId from) const override {
    return reach_[from];
  }

  uint64_t NumClosureArcs() const override { return num_arcs_; }
  std::string EngineName() const override { return "bfs"; }

 private:
  struct Scratch {
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    std::vector<NodeId> queue;
  };

  void Traverse(const Digraph& g, NodeId src, Scratch* s) {
    ++s->stamp;
    s->queue.clear();
    // Seed with the successors of src (paths of length >= 1).
    for (NodeId v : g.Successors(src)) {
      if (s->visited[v] != s->stamp) {
        s->visited[v] = s->stamp;
        s->queue.push_back(v);
      }
    }
    for (size_t head = 0; head < s->queue.size(); ++head) {
      for (NodeId w : g.Successors(s->queue[head])) {
        if (s->visited[w] != s->stamp) {
          s->visited[w] = s->stamp;
          s->queue.push_back(w);
        }
      }
    }
    std::sort(s->queue.begin(), s->queue.end());
    reach_[src] = s->queue;
  }

  std::vector<std::vector<NodeId>> reach_;
  uint64_t num_arcs_ = 0;
};

// ---------------------------------------------------------------------------
// SCC + sorted-vector merge engine (production default): per-component
// reachability over the condensation DAG, exploiting that Tarjan emits
// components in reverse topological order (successor components have
// smaller ids).
// ---------------------------------------------------------------------------
class SccMergeClosure : public TransitiveClosure {
 public:
  explicit SccMergeClosure(const Digraph& g)
      : scc_(ComputeScc(g)), dag_(BuildCondensation(g, scc_)) {
    const NodeId nc = scc_.NumComponents();
    comp_reach_.resize(nc);
    // Component ids ascend in reverse topological order, so every
    // successor component's reach set is already final when we process c.
    std::vector<NodeId> merged;
    for (NodeId c = 0; c < nc; ++c) {
      MergeOne(c, &merged);
      uint64_t targets = 0;
      for (NodeId d : comp_reach_[c]) targets += scc_.members[d].size();
      if (scc_.cyclic[c]) targets += scc_.members[c].size();
      num_arcs_ += targets * scc_.members[c].size();
    }
  }

  std::string EngineName() const override { return "scc_merge"; }

  bool Reaches(NodeId from, NodeId to) const override {
    NodeId cf = scc_.component_of[from];
    NodeId ct = scc_.component_of[to];
    if (cf == ct) return scc_.cyclic[cf];
    const auto& r = comp_reach_[cf];
    return std::binary_search(r.begin(), r.end(), ct);
  }

  std::vector<NodeId> ReachableFrom(NodeId from) const override {
    NodeId cf = scc_.component_of[from];
    std::vector<NodeId> out;
    auto add_component = [&](NodeId c) {
      for (NodeId v : scc_.members[c]) out.push_back(v);
    };
    if (scc_.cyclic[cf]) add_component(cf);
    for (NodeId d : comp_reach_[cf]) add_component(d);
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t NumClosureArcs() const override { return num_arcs_; }

 private:
  void MergeOne(NodeId c, std::vector<NodeId>* merged) {
    merged->clear();
    for (NodeId d : dag_.Successors(c)) {
      merged->push_back(d);
      const auto& rd = comp_reach_[d];
      merged->insert(merged->end(), rd.begin(), rd.end());
    }
    std::sort(merged->begin(), merged->end());
    merged->erase(std::unique(merged->begin(), merged->end()), merged->end());
    comp_reach_[c] = *merged;
  }

  SccResult scc_;
  Digraph dag_;
  std::vector<std::vector<NodeId>> comp_reach_;
  uint64_t num_arcs_ = 0;
};

}  // namespace

const char* ClosureEngineName(ClosureEngine engine) {
  switch (engine) {
    case ClosureEngine::kBfs: return "bfs";
    case ClosureEngine::kSccMerge: return "scc_merge";
    case ClosureEngine::kDynamic: return "dynamic";
  }
  return "unknown";
}

std::unique_ptr<TransitiveClosure> ComputeClosure(const Digraph& g,
                                                  ClosureEngine engine,
                                                  ThreadPool* /*pool*/) {
  switch (engine) {
    case ClosureEngine::kBfs:
      return std::make_unique<BfsClosure>(g);
    case ClosureEngine::kSccMerge:
      return std::make_unique<SccMergeClosure>(g);
    case ClosureEngine::kDynamic:
      return std::make_unique<DynamicClosure>(g);
  }
  return nullptr;
}

}  // namespace olite::graph
