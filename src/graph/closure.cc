#include "graph/closure.h"

#include <algorithm>

#include "graph/dynamic_closure.h"

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
    case ClosureEngine::kDynamic:
      return std::make_unique<DynamicClosure>(g);
  }
  return nullptr;
}

}  // namespace olite::graph
