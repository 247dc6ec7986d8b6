#include "src/graph/digraph.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

namespace knit {

void Digraph::AddEdge(int from, int to) {
  assert(from >= 0 && static_cast<size_t>(from) < successors_.size());
  assert(to >= 0 && static_cast<size_t>(to) < successors_.size());
  successors_[from].push_back(to);
}

void Digraph::AddEdgeUnique(int from, int to) {
  if (!HasEdge(from, to)) {
    AddEdge(from, to);
  }
}

bool Digraph::HasEdge(int from, int to) const {
  assert(from >= 0 && static_cast<size_t>(from) < successors_.size());
  const std::vector<int>& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::optional<std::vector<int>> Digraph::TopologicalSort() const {
  const size_t n = successors_.size();
  std::vector<int> in_degree(n, 0);
  for (const std::vector<int>& succ : successors_) {
    for (int to : succ) {
      ++in_degree[to];
    }
  }
  // Min-heap on node id for deterministic output.
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) {
      ready.push(static_cast<int>(i));
    }
  }
  std::vector<int> order;
  order.reserve(n);
  while (!ready.empty()) {
    int node = ready.top();
    ready.pop();
    order.push_back(node);
    for (int to : successors_[node]) {
      if (--in_degree[to] == 0) {
        ready.push(to);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;
  }
  return order;
}

std::vector<std::vector<int>> Digraph::StronglyConnectedComponents() const {
  const size_t n = successors_.size();
  std::vector<int> index(n, -1);
  std::vector<int> low_link(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  std::vector<std::vector<int>> components;
  int next_index = 0;

  // Iterative Tarjan: systems configs can be deep enough to overflow the C++ stack
  // with a recursive formulation.
  struct Frame {
    int node;
    size_t child;
  };
  std::vector<Frame> work;

  for (size_t root = 0; root < n; ++root) {
    if (index[root] != -1) {
      continue;
    }
    work.push_back(Frame{static_cast<int>(root), 0});
    while (!work.empty()) {
      Frame& frame = work.back();
      int node = frame.node;
      if (frame.child == 0) {
        index[node] = low_link[node] = next_index++;
        stack.push_back(node);
        on_stack[node] = true;
      }
      if (frame.child < successors_[node].size()) {
        int to = successors_[node][frame.child++];
        if (index[to] == -1) {
          work.push_back(Frame{to, 0});
        } else if (on_stack[to]) {
          low_link[node] = std::min(low_link[node], index[to]);
        }
        continue;
      }
      if (low_link[node] == index[node]) {
        std::vector<int> component;
        while (true) {
          int member = stack.back();
          stack.pop_back();
          on_stack[member] = false;
          component.push_back(member);
          if (member == node) {
            break;
          }
        }
        std::sort(component.begin(), component.end());
        components.push_back(std::move(component));
      }
      work.pop_back();
      if (!work.empty()) {
        int parent = work.back().node;
        low_link[parent] = std::min(low_link[parent], low_link[node]);
      }
    }
  }
  return components;
}

std::vector<int> Digraph::FindCycle() const {
  // A single node with a self edge is a cycle; otherwise any SCC with >1 node
  // contains one. Walk within the SCC to extract an explicit path.
  for (const std::vector<std::vector<int>>& sccs = StronglyConnectedComponents();
       const std::vector<int>& scc : sccs) {
    bool cyclic = scc.size() > 1 || HasEdge(scc[0], scc[0]);
    if (!cyclic) {
      continue;
    }
    std::vector<bool> in_scc(successors_.size(), false);
    for (int node : scc) {
      in_scc[node] = true;
    }
    // DFS restricted to the SCC from scc[0] until we revisit a node on the path.
    std::vector<int> path;
    std::vector<bool> on_path(successors_.size(), false);
    std::function<std::vector<int>(int)> dfs = [&](int node) -> std::vector<int> {
      path.push_back(node);
      on_path[node] = true;
      for (int to : successors_[node]) {
        if (!in_scc[to]) {
          continue;
        }
        if (on_path[to]) {
          // Found the cycle: slice the path from the first occurrence of `to`.
          auto it = std::find(path.begin(), path.end(), to);
          return std::vector<int>(it, path.end());
        }
        std::vector<int> found = dfs(to);
        if (!found.empty()) {
          return found;
        }
      }
      on_path[node] = false;
      path.pop_back();
      return {};
    };
    std::vector<int> cycle = dfs(scc[0]);
    if (!cycle.empty()) {
      return cycle;
    }
  }
  return {};
}

std::vector<bool> Digraph::ReachableFrom(int start) const {
  std::vector<bool> seen(successors_.size(), false);
  std::vector<int> work{start};
  seen[start] = true;
  while (!work.empty()) {
    int node = work.back();
    work.pop_back();
    for (int to : successors_[node]) {
      if (!seen[to]) {
        seen[to] = true;
        work.push_back(to);
      }
    }
  }
  return seen;
}

Digraph Digraph::Reversed() const {
  Digraph out(successors_.size());
  for (size_t from = 0; from < successors_.size(); ++from) {
    for (int to : successors_[from]) {
      out.AddEdge(to, static_cast<int>(from));
    }
  }
  return out;
}

}  // namespace knit
