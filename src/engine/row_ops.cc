#include "engine/row_ops.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "engine/exec_util.h"

namespace htapex {
namespace rowops {

namespace {

/// Three-way comparison of evaluated sort-key rows under `keys`: negative
/// when `a` precedes `b`.
int CompareSortKeyRows(const std::vector<SortKey>& keys, const Row& a,
                       const Row& b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return keys[i].descending ? -c : c;
  }
  return 0;
}

Result<Rows> Filter(const PlanNode& node, Rows in) {
  Rows out;
  for (Row& row : in) {
    HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, row));
    if (pass) out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> Aggregate(const PlanNode& node, const Rows& in) {
  GroupMap groups;
  for (const Row& row : in) {
    HTAPEX_RETURN_IF_ERROR(AccumulateRow(node, row, &groups));
  }
  return FinalizeGroups(node, groups);
}

/// Evaluates `node`'s sort keys over `row`.
Result<Row> EvalSortKey(const PlanNode& node, const Row& row) {
  Row key;
  key.reserve(node.sort_keys.size());
  for (const auto& k : node.sort_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*k.expr, row));
    key.push_back(std::move(v));
  }
  return key;
}

Result<Rows> Sort(const PlanNode& node, Rows in) {
  std::vector<std::pair<Row, Row>> keyed;  // (key values, payload row)
  keyed.reserve(in.size());
  for (Row& row : in) {
    HTAPEX_ASSIGN_OR_RETURN(Row key, EvalSortKey(node, row));
    keyed.emplace_back(std::move(key), std::move(row));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&node](const std::pair<Row, Row>& a,
                           const std::pair<Row, Row>& b) {
                     return CompareSortKeyRows(node.sort_keys, a.first,
                                               b.first) < 0;
                   });
  Rows out;
  out.reserve(keyed.size());
  for (auto& [key, row] : keyed) out.push_back(std::move(row));
  return out;
}

Result<Rows> TopN(const PlanNode& node, Rows in) {
  size_t start = static_cast<size_t>(std::max<int64_t>(node.offset, 0));
  if (node.limit < 0) {
    // No limit: nothing to bound, degenerate to a full sort + offset slice.
    HTAPEX_ASSIGN_OR_RETURN(Rows sorted, Sort(node, std::move(in)));
    Rows out;
    for (size_t i = start; i < sorted.size(); ++i) {
      out.push_back(std::move(sorted[i]));
    }
    return out;
  }
  // Bounded heap of the offset+limit first rows under the sort order —
  // the work the latency model charges. The (keys, input index) total
  // order makes this exactly equivalent to stable_sort + slice.
  size_t keep = start + static_cast<size_t>(node.limit);
  if (keep == 0) return Rows{};
  struct Entry {
    Row key;
    Row row;
    size_t idx;
  };
  auto precedes = [&node](const Entry& a, const Entry& b) {
    int c = CompareSortKeyRows(node.sort_keys, a.key, b.key);
    if (c != 0) return c < 0;
    return a.idx < b.idx;  // ties resolve to earlier input, as stable_sort
  };
  // Max-heap under `precedes`: front is the worst row currently kept.
  std::vector<Entry> heap;
  heap.reserve(std::min(keep, in.size()) + 1);
  for (size_t i = 0; i < in.size(); ++i) {
    HTAPEX_ASSIGN_OR_RETURN(Row key, EvalSortKey(node, in[i]));
    Entry e{std::move(key), std::move(in[i]), i};
    if (heap.size() < keep) {
      heap.push_back(std::move(e));
      std::push_heap(heap.begin(), heap.end(), precedes);
    } else if (precedes(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), precedes);
      heap.back() = std::move(e);
      std::push_heap(heap.begin(), heap.end(), precedes);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), precedes);
  Rows out;
  for (size_t i = start; i < heap.size(); ++i) {
    out.push_back(std::move(heap[i].row));
  }
  return out;
}

Rows Limit(const PlanNode& node, Rows in) {
  size_t start = static_cast<size_t>(std::max<int64_t>(node.offset, 0));
  size_t count = node.limit < 0 ? in.size() : static_cast<size_t>(node.limit);
  Rows out;
  for (size_t i = start; i < in.size() && out.size() < count; ++i) {
    out.push_back(std::move(in[i]));
  }
  return out;
}

Result<Rows> Project(const PlanNode& node, const Rows& in) {
  Rows out;
  out.reserve(in.size());
  for (const Row& row : in) {
    Row projected;
    projected.reserve(node.projections.size());
    for (const auto& p : node.projections) {
      HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, row));
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<Rows> HashJoin(const PlanNode& node, const ChildRunner& run_child,
                      std::map<int, BloomFilter>* sift_filters) {
  JoinBuild build;
  HTAPEX_ASSIGN_OR_RETURN(bool probe_needed,
                          BuildJoin(node, run_child, sift_filters, &build));
  if (!probe_needed) return Rows{};
  HTAPEX_ASSIGN_OR_RETURN(Rows probe, run_child(*node.children[0]));
  const Rows& rows = build.build_rows;
  Rows out;
  if (build.cross) {
    for (const Row& p : probe) {
      for (const Row& b : rows) {
        Row merged = p;
        MergeSlots(build.build_ranges, b, &merged);
        HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
        if (pass) out.push_back(std::move(merged));
      }
    }
    return out;
  }
  std::unordered_multimap<uint64_t, size_t> table;
  table.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!build.build_keys[i].is_null()) table.emplace(build.build_hashes[i], i);
  }
  out.reserve(probe.size());
  for (const Row& p : probe) {
    HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*node.left_key, p));
    if (k.is_null()) continue;
    auto [lo, hi] = table.equal_range(k.Hash());
    for (auto it = lo; it != hi; ++it) {
      if (build.build_keys[it->second].Compare(k) != 0) continue;
      Row merged = p;
      MergeSlots(build.build_ranges, rows[it->second], &merged);
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (pass) out.push_back(std::move(merged));
    }
  }
  return out;
}

Result<Rows> NestedLoopJoin(const PlanNode& node, const Rows& outer,
                            const Rows& inner) {
  std::vector<std::pair<int, int>> inner_ranges;
  CollectScanRanges(*node.children[1], &inner_ranges);
  Rows out;
  for (const Row& o : outer) {
    for (const Row& i : inner) {
      Row merged = o;
      MergeSlots(inner_ranges, i, &merged);
      if (node.left_key != nullptr) {
        HTAPEX_ASSIGN_OR_RETURN(Value lk, EvalExpr(*node.left_key, merged));
        HTAPEX_ASSIGN_OR_RETURN(Value rk, EvalExpr(*node.right_key, merged));
        if (lk.is_null() || rk.is_null() || lk.Compare(rk) != 0) continue;
      }
      HTAPEX_ASSIGN_OR_RETURN(bool pass, PassesPredicates(node, merged));
      if (pass) out.push_back(std::move(merged));
    }
  }
  return out;
}

}  // namespace

Result<bool> BuildJoin(const PlanNode& node, const ChildRunner& run_child,
                       std::map<int, BloomFilter>* sift_filters,
                       JoinBuild* build) {
  HTAPEX_ASSIGN_OR_RETURN(build->build_rows, run_child(*node.children[1]));
  CollectScanRanges(*node.children[1], &build->build_ranges);
  const Rows& rows = build->build_rows;
  if (rows.empty()) return false;
  if (node.left_key == nullptr || node.right_key == nullptr) {
    build->cross = true;
    return true;
  }
  BloomFilter* bloom = nullptr;
  if (node.sift_id >= 0) {
    bloom = &sift_filters
                 ->emplace(node.sift_id,
                           BloomFilter(rows.size(), node.sift_bits_per_key))
                 .first->second;
  }
  build->build_keys.resize(rows.size());
  build->build_hashes.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*node.right_key, rows[i]));
    if (k.is_null()) continue;
    const uint64_t h = k.Hash();
    build->build_keys[i] = std::move(k);
    build->build_hashes[i] = h;
    if (bloom != nullptr) bloom->Insert(h);
  }
  return true;
}

Status AccumulateRow(const PlanNode& node, const Row& row, GroupMap* groups) {
  Row key;
  key.reserve(node.group_keys.size());
  for (const auto& g : node.group_keys) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, row));
    key.push_back(std::move(v));
  }
  auto [it, inserted] =
      groups->try_emplace(std::move(key), node.aggregates.size());
  for (size_t a = 0; a < node.aggregates.size(); ++a) {
    HTAPEX_RETURN_IF_ERROR(
        AccumulateAgg(*node.aggregates[a], row, &it->second[a]));
  }
  return Status::OK();
}

Rows FinalizeGroups(const PlanNode& node, const GroupMap& groups) {
  Rows out;
  if (groups.empty() && node.group_keys.empty()) {
    // Scalar aggregation over an empty input still yields one row.
    Row row;
    std::vector<AggState> empty(node.aggregates.size());
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      row.push_back(FinalizeAgg(*node.aggregates[a], empty[a]));
    }
    out.push_back(std::move(row));
    return out;
  }
  for (const auto& [key, states] : groups) {
    Row row = key;
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      row.push_back(FinalizeAgg(*node.aggregates[a], states[a]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Result<Rows> RunOperator(const PlanNode& node, const ChildRunner& run_child,
                         std::map<int, BloomFilter>* sift_filters) {
  switch (node.op) {
    case PlanOp::kHashJoin:
      return HashJoin(node, run_child, sift_filters);
    case PlanOp::kNestedLoopJoin: {
      HTAPEX_ASSIGN_OR_RETURN(Rows outer, run_child(*node.children[0]));
      HTAPEX_ASSIGN_OR_RETURN(Rows inner, run_child(*node.children[1]));
      return NestedLoopJoin(node, outer, inner);
    }
    case PlanOp::kFilter:
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
    case PlanOp::kSort:
    case PlanOp::kTopN:
    case PlanOp::kLimit:
    case PlanOp::kProject:
    case PlanOp::kExchange:
      break;  // single input, run below
    default:
      return Status::Internal(std::string("not a shared operator: ") +
                              PlanOpName(node.op));
  }
  HTAPEX_ASSIGN_OR_RETURN(Rows in, run_child(*node.children[0]));
  switch (node.op) {
    case PlanOp::kFilter:
      return Filter(node, std::move(in));
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
      return Aggregate(node, in);
    case PlanOp::kSort:
      return Sort(node, std::move(in));
    case PlanOp::kTopN:
      return TopN(node, std::move(in));
    case PlanOp::kLimit:
      return Limit(node, std::move(in));
    case PlanOp::kProject:
      return Project(node, in);
    default:  // kExchange: a pass-through in this single-process engine
      return in;
  }
}

}  // namespace rowops
}  // namespace htapex
