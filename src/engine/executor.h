#ifndef HTAPEX_ENGINE_EXECUTOR_H_
#define HTAPEX_ENGINE_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "plan/pt_graph.h"
#include "storage/column_store.h"
#include "storage/row_store.h"

namespace htapex {

/// Per-node execution statistics (EXPLAIN ANALYZE style): actual output
/// cardinality of every operator, including the inline-probed inner side
/// of index nested-loop joins. Both executors (row-at-a-time and
/// vectorized) record identical per-node cardinalities for the same plan.
struct ExecStats {
  std::map<const PlanNode*, size_t> actual_rows;
};

/// True when every table a kSiftedScan in `sifted` targets was scanned in
/// the run that produced `stats` — typically the same query's unsifted
/// plan. A hash join whose build side comes back empty skips its whole
/// probe subtree, so an unsifted plan may never scan the table a sift
/// would shrink; a sift cannot save rows there.
bool RanSiftTargets(const PlanNode& sifted, const ExecStats& stats);

/// A query result: named columns plus rows of values.
struct QueryResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  /// Canonical text form for cross-engine result comparison (rows sorted).
  std::string Fingerprint() const;
};

/// Executes physical plans from either engine against the in-process
/// storage: TP operators read the RowStore (whole rows, B+-tree probes),
/// AP operators read the ColumnStore (referenced columns, zone-map
/// pruning). Execution is materializing — correctness-oriented; the
/// latency model (latency_model.h), not wall time, provides the
/// at-scale timings the explainer reasons about. The scans and the index
/// nested-loop join are this executor's own; every other operator is the
/// shared row_ops library, which the VecExecutor runs too.
class Executor {
 public:
  Executor(const Catalog& catalog, const RowStore& row_store,
           const ColumnStore& column_store)
      : catalog_(catalog), row_store_(row_store), column_store_(column_store) {}

  /// Runs the plan; `output_names` labels the result columns. When `stats`
  /// is provided, per-node actual cardinalities are recorded into it.
  Result<QueryResultSet> Execute(const PhysicalPlan& plan,
                                 std::vector<std::string> output_names,
                                 ExecStats* stats = nullptr) const;

 private:
  using Rows = std::vector<Row>;

  Result<Rows> Run(const PlanNode& node, int total_slots) const;
  Result<Rows> RunDispatch(const PlanNode& node, int total_slots) const;

  Result<Rows> RunTableScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunIndexScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunColumnScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunSiftedScan(const PlanNode& node, int total_slots) const;
  Result<Rows> RunIndexNestedLoopJoin(const PlanNode& node,
                                      int total_slots) const;

  /// Fetches one base-table row into the composite layout.
  Row MakeComposite(const PlanNode& scan, const Row& base_row,
                    int total_slots) const;

  const Catalog& catalog_;
  const RowStore& row_store_;
  const ColumnStore& column_store_;
  /// Set only for the duration of an instrumented Execute call.
  mutable ExecStats* stats_ = nullptr;
  /// Bloom filters built by sift-producing hash joins during the current
  /// Execute, keyed by sift_id; consumed by kSiftedScan nodes below them.
  /// Like stats_, this assumes one Execute at a time per Executor.
  mutable std::map<int, BloomFilter> sift_filters_;
};

}  // namespace htapex

#endif  // HTAPEX_ENGINE_EXECUTOR_H_
