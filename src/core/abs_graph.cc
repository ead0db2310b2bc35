#include "src/core/abs_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "src/common/check.h"

namespace gmorph {

bool CapacitySignature::MoreAggressiveThan(const CapacitySignature& other) const {
  if (per_task_total.size() != other.per_task_total.size()) {
    return false;
  }
  if (total > other.total || shared_total < other.shared_total) {
    return false;
  }
  for (size_t t = 0; t < per_task_total.size(); ++t) {
    if (per_task_total[t] > other.per_task_total[t] ||
        per_task_specific[t] > other.per_task_specific[t]) {
      return false;
    }
  }
  return true;
}

AbsGraph AbsGraph::WithRoot(const Shape& input_shape, int num_tasks) {
  AbsGraph g;
  g.num_tasks_ = num_tasks;
  AbsNode root;
  root.id = 0;
  root.task_id = -1;
  root.op_id = -1;
  root.input_shape = input_shape;
  root.output_shape = input_shape;
  root.capacity = 0;
  root.parent = -1;
  g.nodes_.push_back(std::move(root));
  return g;
}

AbsGraph AbsGraph::FromNodesUnchecked(std::vector<AbsNode> nodes, int num_tasks) {
  AbsGraph g;
  g.nodes_ = std::move(nodes);
  g.num_tasks_ = num_tasks;
  return g;
}

int AbsGraph::HeadOfTask(int t) const {
  for (const AbsNode& n : nodes_) {
    if (n.IsHead() && n.task_id == t) {
      return n.id;
    }
  }
  return -1;
}

int AbsGraph::AddNode(int parent, int task_id, int op_id, const BlockSpec& spec,
                      std::vector<Tensor> weights) {
  GMORPH_CHECK(parent >= 0 && parent < size());
  AbsNode n;
  n.id = size();
  n.task_id = task_id;
  n.op_id = op_id;
  n.spec = spec;
  n.input_shape = nodes_[static_cast<size_t>(parent)].output_shape;
  n.output_shape = BlockOutShape(spec, n.input_shape);
  n.capacity = BlockCapacity(spec);
  n.parent = parent;
  n.weights = std::move(weights);
  nodes_[static_cast<size_t>(parent)].children.push_back(n.id);
  nodes_.push_back(std::move(n));
  return size() - 1;
}

void AbsGraph::Reparent(int child, int new_parent) {
  GMORPH_CHECK(child > 0 && child < size() && new_parent >= 0 && new_parent < size());
  GMORPH_CHECK(!IsAncestor(child, new_parent), "reparent would create a cycle");
  AbsNode& c = nodes_[static_cast<size_t>(child)];
  AbsNode& old_parent = nodes_[static_cast<size_t>(c.parent)];
  old_parent.children.erase(
      std::find(old_parent.children.begin(), old_parent.children.end(), child));
  c.parent = new_parent;
  nodes_[static_cast<size_t>(new_parent)].children.push_back(child);
}

int AbsGraph::GarbageCollect() {
  // Iteratively mark childless non-head internal nodes dead.
  std::vector<bool> dead(nodes_.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const AbsNode& n : nodes_) {
      if (n.IsRoot() || n.IsHead() || dead[static_cast<size_t>(n.id)]) {
        continue;
      }
      bool has_live_child = false;
      for (int c : n.children) {
        if (!dead[static_cast<size_t>(c)]) {
          has_live_child = true;
          break;
        }
      }
      if (!has_live_child) {
        dead[static_cast<size_t>(n.id)] = true;
        changed = true;
      }
    }
  }
  const int removed =
      static_cast<int>(std::count(dead.begin(), dead.end(), true));
  if (removed == 0) {
    return 0;
  }
  // Renumber survivors in original order (root stays 0).
  std::vector<int> remap(nodes_.size(), -1);
  std::vector<AbsNode> fresh;
  fresh.reserve(nodes_.size() - static_cast<size_t>(removed));
  for (const AbsNode& n : nodes_) {
    if (!dead[static_cast<size_t>(n.id)]) {
      remap[static_cast<size_t>(n.id)] = static_cast<int>(fresh.size());
      fresh.push_back(n);
    }
  }
  for (AbsNode& n : fresh) {
    n.id = remap[static_cast<size_t>(n.id)];
    if (n.parent >= 0) {
      n.parent = remap[static_cast<size_t>(n.parent)];
      GMORPH_CHECK(n.parent >= 0);
    }
    std::vector<int> kids;
    for (int c : n.children) {
      if (remap[static_cast<size_t>(c)] >= 0) {
        kids.push_back(remap[static_cast<size_t>(c)]);
      }
    }
    n.children = std::move(kids);
  }
  nodes_ = std::move(fresh);
  return removed;
}

std::vector<int> AbsGraph::TopologicalOrder() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  // Visited guard: on a well-formed tree it never triggers, but it keeps the
  // walk terminating on malformed input (e.g. a corrupted deserialized graph
  // on its way into Validate()).
  std::vector<bool> visited(nodes_.size(), false);
  std::deque<int> queue = {root()};
  visited[static_cast<size_t>(root())] = true;
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    order.push_back(id);
    for (int c : nodes_[static_cast<size_t>(id)].children) {
      if (!visited[static_cast<size_t>(c)]) {
        visited[static_cast<size_t>(c)] = true;
        queue.push_back(c);
      }
    }
  }
  return order;
}

bool AbsGraph::IsAncestor(int ancestor, int node) const {
  int cur = node;
  while (cur != -1) {
    if (cur == ancestor) {
      return true;
    }
    cur = nodes_[static_cast<size_t>(cur)].parent;
  }
  return false;
}

std::set<int> AbsGraph::TasksServed(int id) const {
  std::set<int> tasks;
  std::deque<int> queue = {id};
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    const AbsNode& n = nodes_[static_cast<size_t>(cur)];
    if (n.IsHead()) {
      tasks.insert(n.task_id);
    }
    for (int c : n.children) {
      queue.push_back(c);
    }
  }
  return tasks;
}

std::map<Shape, std::vector<int>> AbsGraph::ShapeDictionary() const {
  std::map<Shape, std::vector<int>> dict;
  for (const AbsNode& n : nodes_) {
    if (!n.IsRoot()) {
      dict[n.input_shape].push_back(n.id);
    }
  }
  return dict;
}

CapacitySignature AbsGraph::Signature() const {
  CapacitySignature sig;
  sig.per_task_total.assign(static_cast<size_t>(num_tasks_), 0);
  sig.per_task_specific.assign(static_cast<size_t>(num_tasks_), 0);
  for (const AbsNode& n : nodes_) {
    if (n.IsRoot()) {
      continue;
    }
    sig.total += n.capacity;
    const std::set<int> served = TasksServed(n.id);
    for (int t : served) {
      sig.per_task_total[static_cast<size_t>(t)] += n.capacity;
    }
    if (served.size() == 1) {
      sig.per_task_specific[static_cast<size_t>(*served.begin())] += n.capacity;
    } else if (served.size() > 1) {
      sig.shared_total += n.capacity;
    }
  }
  return sig;
}

int64_t AbsGraph::TotalCapacity() const {
  int64_t n = 0;
  for (const AbsNode& node : nodes_) {
    n += node.capacity;
  }
  return n;
}

int64_t AbsGraph::TotalFlops() const {
  int64_t f = 0;
  for (const AbsNode& n : nodes_) {
    if (!n.IsRoot()) {
      f += BlockFlops(n.spec, n.input_shape);
    }
  }
  return f;
}

void AbsGraph::Validate() const {
  GMORPH_CHECK(!nodes_.empty() && nodes_[0].IsRoot());
  std::vector<int> seen_heads(static_cast<size_t>(num_tasks_), 0);
  int reached = 0;
  for (int id : TopologicalOrder()) {
    ++reached;
    const AbsNode& n = nodes_[static_cast<size_t>(id)];
    GMORPH_CHECK(n.id == id);
    if (n.IsRoot()) {
      continue;
    }
    const AbsNode& p = nodes_[static_cast<size_t>(n.parent)];
    GMORPH_CHECK(p.output_shape == n.input_shape,
                     "edge shape mismatch at node " << id << ": parent outputs "
                                                    << p.output_shape.ToString() << ", node "
                                                    << n.spec.ToString() << " expects "
                                                    << n.input_shape.ToString());
    GMORPH_CHECK(std::find(p.children.begin(), p.children.end(), id) != p.children.end());
    GMORPH_CHECK(BlockOutShape(n.spec, n.input_shape) == n.output_shape,
                     "stale output shape at node " << id);
    if (n.IsHead()) {
      GMORPH_CHECK(n.task_id >= 0 && n.task_id < num_tasks_);
      ++seen_heads[static_cast<size_t>(n.task_id)];
    } else {
      GMORPH_CHECK(!n.children.empty(), "dangling non-head node " << id);
    }
  }
  GMORPH_CHECK(reached == size(), "unreachable nodes present");
  for (int t = 0; t < num_tasks_; ++t) {
    GMORPH_CHECK(seen_heads[static_cast<size_t>(t)] == 1,
                     "task " << t << " has " << seen_heads[static_cast<size_t>(t)] << " heads");
  }
}

std::string AbsGraph::ToString() const {
  std::ostringstream os;
  // DFS with indentation.
  struct Frame {
    int id;
    int depth;
  };
  std::vector<Frame> stack = {{root(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const AbsNode& n = nodes_[static_cast<size_t>(f.id)];
    for (int i = 0; i < f.depth; ++i) {
      os << "  ";
    }
    if (n.IsRoot()) {
      os << "input " << n.output_shape.ToString() << "\n";
    } else {
      os << "#" << n.id << " t" << n.task_id << "." << n.op_id << " " << n.spec.ToString()
         << " " << n.input_shape.ToString() << "->" << n.output_shape.ToString() << "\n";
    }
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, f.depth + 1});
    }
  }
  return os.str();
}

std::string AbsGraph::Fingerprint() const {
  std::ostringstream os;
  for (int id : TopologicalOrder()) {
    const AbsNode& n = nodes_[static_cast<size_t>(id)];
    os << n.parent << ":" << n.task_id << ":" << n.spec.ToString() << ":"
       << n.input_shape.ToString() << ";";
  }
  return os.str();
}

}  // namespace gmorph
