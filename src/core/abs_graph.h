// Abstract graph (paper §4.1): the tree-shaped IR over which graph mutation
// operates.
//
// The root is a placeholder for the shared input tensor; every other node is
// one computation block (BlockSpec) originating from some task's DNN. Each
// task's chain ends in its Head node. Feature sharing turns the initial
// "bundle of chains" into a tree: shared prefixes are computed once.
//
// Nodes carry their (optional) trained weights as immutable tensors — copies
// of an AbsGraph share weight storage, which keeps the history database cheap;
// the model generator deep-copies weights into trainable modules.
#ifndef GMORPH_SRC_CORE_ABS_GRAPH_H_
#define GMORPH_SRC_CORE_ABS_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/models/model_spec.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace gmorph {

struct AbsNode {
  int id = -1;       // index into AbsGraph::nodes()
  int task_id = -1;  // task/DNN the block originated from (root: -1)
  int op_id = -1;    // topological order within the originating DNN
  BlockSpec spec;
  Shape input_shape;   // per-sample
  Shape output_shape;  // per-sample
  int64_t capacity = 0;
  int parent = -1;
  std::vector<int> children;
  // Trained weights in Module::Parameters() order; empty => fresh init.
  std::vector<Tensor> weights;

  bool IsRoot() const { return parent == -1 && op_id == -1; }
  bool IsHead() const { return spec.type == BlockType::kHead; }
};

// Capacity accounting used by rule-based filtering (paper §5.1).
struct CapacitySignature {
  int64_t total = 0;
  std::vector<int64_t> per_task_total;     // capacity on the task's root->head path
  std::vector<int64_t> per_task_specific;  // capacity serving only that task
  int64_t shared_total = 0;                // capacity serving more than one task

  // True if *this is more aggressive in feature sharing than `other`:
  // (1) fewer total capacity, (2) fewer per-task totals, (3) fewer per-task
  // task-specific capacity, (4) more shared capacity — all must hold.
  bool MoreAggressiveThan(const CapacitySignature& other) const;
};

class AbsGraph {
 public:
  AbsGraph() = default;

  // Creates a graph containing only the input placeholder root.
  static AbsGraph WithRoot(const Shape& input_shape, int num_tasks);

  // Reassembles a graph from raw nodes without validating: the deserializer
  // and the static verifier diagnose malformed graphs instead of throwing.
  static AbsGraph FromNodesUnchecked(std::vector<AbsNode> nodes, int num_tasks);

  int num_tasks() const { return num_tasks_; }
  const std::vector<AbsNode>& nodes() const { return nodes_; }
  const AbsNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  AbsNode& mutable_node(int id) { return nodes_[static_cast<size_t>(id)]; }
  int root() const { return 0; }
  int size() const { return static_cast<int>(nodes_.size()); }

  // Head node id of task `t`, or -1 if absent.
  int HeadOfTask(int t) const;

  // Appends a node under `parent`; computes output shape and capacity from the
  // spec. Returns the new node id.
  int AddNode(int parent, int task_id, int op_id, const BlockSpec& spec,
              std::vector<Tensor> weights = {});

  // Moves node `child` (with its subtree) under `new_parent`. The caller is
  // responsible for shape compatibility and acyclicity.
  void Reparent(int child, int new_parent);

  // Removes dead branches: repeatedly deletes childless non-head, non-root
  // nodes, then renumbers ids into a compact range. Returns ids removed count.
  int GarbageCollect();

  // Ids in topological order (parents before children), root first.
  std::vector<int> TopologicalOrder() const;

  // True if `ancestor` is on the root path of `node` (or equal to it).
  bool IsAncestor(int ancestor, int node) const;

  // Which tasks' heads live in the subtree of `id`.
  std::set<int> TasksServed(int id) const;

  // The shape dictionary D: input shape -> nodes that consume it.
  std::map<Shape, std::vector<int>> ShapeDictionary() const;

  CapacitySignature Signature() const;

  int64_t TotalCapacity() const;
  // Sum of per-sample forward FLOPs over all nodes.
  int64_t TotalFlops() const;

  // Structural validation: tree shape, per-task head uniqueness, edge shape
  // compatibility. Throws CheckError on violation.
  void Validate() const;

  // Human-readable tree dump.
  std::string ToString() const;

  // Structural fingerprint (ignores weights); equal graphs share topology,
  // specs and shapes. Used to deduplicate evaluated candidates.
  std::string Fingerprint() const;

 private:
  std::vector<AbsNode> nodes_;
  int num_tasks_ = 0;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_ABS_GRAPH_H_
