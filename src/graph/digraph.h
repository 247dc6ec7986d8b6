// A small directed-graph toolkit: adjacency storage, Kahn topological sort, Tarjan
// strongly-connected components, cycle extraction, and reachability. Nodes are dense
// integer ids assigned by the caller (typically indices into a parallel entity table).
#ifndef SRC_GRAPH_DIGRAPH_H_
#define SRC_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace knit {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(size_t node_count) : successors_(node_count) {}

  // Adds the edge from -> to. Duplicate edges are kept (harmless for our algorithms)
  // unless AddEdgeUnique is used.
  void AddEdge(int from, int to);
  void AddEdgeUnique(int from, int to);

  size_t node_count() const { return successors_.size(); }

  bool HasEdge(int from, int to) const;

  // Kahn topological sort. Returns the order (every edge from->to has `from` earlier)
  // or nullopt if the graph has a cycle. Ties are broken by smallest node id so the
  // result is deterministic.
  std::optional<std::vector<int>> TopologicalSort() const;

  // Tarjan SCC. Returns components in reverse topological order (callees first);
  // each component lists its member nodes.
  std::vector<std::vector<int>> StronglyConnectedComponents() const;

  // Finds some cycle and returns it as a node sequence [n0, n1, ..., n0-implied]
  // (the edge nk -> n0 closes it). Empty if acyclic.
  std::vector<int> FindCycle() const;

  // All nodes reachable from `start` (including start).
  std::vector<bool> ReachableFrom(int start) const;

  // A copy of this graph with every edge reversed.
  Digraph Reversed() const;

 private:
  std::vector<std::vector<int>> successors_;
};

}  // namespace knit

#endif  // SRC_GRAPH_DIGRAPH_H_
