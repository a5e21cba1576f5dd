#ifndef HTAPEX_ENGINE_ROW_OPS_H_
#define HTAPEX_ENGINE_ROW_OPS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/agg_state.h"
#include "plan/plan_node.h"
#include "plan/pt_graph.h"

namespace htapex {

/// The sequential, row-at-a-time operators. Both executors run these from
/// their own RunDispatch: the row Executor for every non-scan operator,
/// the VecExecutor for everything outside its morsel pipelines. Each
/// operator therefore exists once, and the two executors agree on their
/// semantics (tie order, error order, NULL handling, ExecStats node set)
/// by construction.
///
/// Each operator works on its children's materialized rows; RunOperator
/// runs the children first through the executor's ChildRunner (once per
/// child, never per row). Only the hash join interleaves: its build child
/// runs first, and its probe child not at all when the build side is
/// empty.
namespace rowops {

using Rows = std::vector<Row>;
/// Group key -> one accumulator per aggregate; ordered, so finalized
/// groups come out in key order.
using GroupMap = std::map<Row, std::vector<AggState>, RowLess>;

/// Runs a child subtree to rows through the executor's own Run (which
/// records the child's ExecStats).
using ChildRunner = std::function<Result<Rows>(const PlanNode&)>;

/// A hash join's materialized build side.
struct JoinBuild {
  Rows build_rows;
  /// Per build row: its evaluated join key (NULL: the row never joins and
  /// is not hashed) and, for non-NULL keys, Value::Hash() of it.
  std::vector<Value> build_keys;
  std::vector<uint64_t> build_hashes;
  /// Composite-row slot ranges the build subtree fills.
  std::vector<std::pair<int, int>> build_ranges;
  bool cross = false;  // no equi-keys: degenerate cross join
};

/// Step one of every hash join, run before anything touches the probe
/// side: runs the build child, evaluates each build row's key, and inserts
/// every non-NULL key hash into the join's sift Bloom filter (a node with
/// sift_id >= 0 gets sift_filters[sift_id], which the kSiftedScan at the
/// bottom of its probe spine reads). Returns false when the build side is
/// empty: these are inner joins, so the join is empty whatever the probe
/// side holds, and the caller must not run the probe subtree at all (it
/// then records no ExecStats). No filter is built in that case.
Result<bool> BuildJoin(const PlanNode& node, const ChildRunner& run_child,
                       std::map<int, BloomFilter>* sift_filters,
                       JoinBuild* build);

/// Folds one input row into its group's accumulators.
Status AccumulateRow(const PlanNode& node, const Row& row, GroupMap* groups);

/// One output row per group (group keys, then finalized aggregates); a
/// scalar aggregation over no input still yields one row.
Rows FinalizeGroups(const PlanNode& node, const GroupMap& groups);

/// Runs one shared operator — Filter, NestedLoopJoin, HashJoin (BuildJoin,
/// then a row-at-a-time unordered_multimap probe: the parity oracle for
/// the vectorized batch probe, whose JoinTable replays equal_range order),
/// Group/HashAggregate, Sort, TopN, Limit, Project or Exchange — running
/// its children through `run_child`. Scans and the index nested-loop join
/// belong to the executors and are rejected.
Result<Rows> RunOperator(const PlanNode& node, const ChildRunner& run_child,
                         std::map<int, BloomFilter>* sift_filters);

}  // namespace rowops
}  // namespace htapex

#endif  // HTAPEX_ENGINE_ROW_OPS_H_
