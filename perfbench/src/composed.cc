#include <algorithm>
#include <cmath>
#include <utility>

#include "bench.h"
#include "llm/resilient_llm.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using htapex::ExplainResult;
using htapex::Result;

namespace {
// Sums the engines accumulate in different orders agree to far better than
// this; a wrong row or value misses it by orders of magnitude.
constexpr double kRelativeTolerance = 1e-9;
}  // namespace

void LayerClock::Add(const std::string& layer, double us, uint64_t calls) {
  auto& [total, n] = spans_[layer];
  total += us;
  n += calls;
}

double LayerClock::MeanUs(const std::string& layer) const {
  auto it = spans_.find(layer);
  if (it == spans_.end() || it->second.second == 0) return 0.0;
  return it->second.first / static_cast<double>(it->second.second);
}

uint64_t LayerClock::Calls(const std::string& layer) const {
  auto it = spans_.find(layer);
  return it == spans_.end() ? 0 : it->second.second;
}

double LayerClock::TotalUs() const {
  double total = 0.0;
  for (const auto& [name, span] : spans_) total += span.first;
  return total;
}

void LayerClock::Observe(const std::string& name, double value) {
  auto& [total, n] = values_[name];
  total += value;
  ++n;
}

double LayerClock::Mean(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.second == 0) return 0.0;
  return it->second.first / static_cast<double>(it->second.second);
}

Span::~Span() {
  if (clock_ == nullptr) return;
  clock_->Add(layer_, std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
}

ComposedExplainer::ComposedExplainer(const Fixture& fixture, bool use_cache)
    : system_(*fixture.system),
      explainer_(*fixture.explainer),
      tp_(system_.catalog(), system_.config().tp_cost),
      ap_(system_.catalog(), system_.config().ap_cost),
      expert_(system_.catalog(), system_.config().latency),
      retriever_(&explainer_.knowledge_base()),
      llm_(htapex::MakeRagLlm(htapex::DoubaoPersona())) {  // fixture default
  prompt_builder_.set_user_context(explainer_.config().user_context);
  if (use_cache) {
    cache_ = std::make_unique<htapex::ShardedExplainCache>(
        htapex::ShardedExplainCache::Options{});
  }
}

std::vector<Result<ExplainResult>> ComposedExplainer::ExplainBatch(
    const std::vector<std::string>& sqls, LayerClock* clock) {
  struct Staged {
    htapex::BoundQuery query;
    ExplainResult result;
  };
  std::vector<Result<ExplainResult>> out;
  std::vector<Staged> staged(sqls.size());
  std::vector<htapex::Status> errors(sqls.size());

  // Stage one, per query: sql, tp, ap and the latency model.
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto stmt = Timed(clock, "sql.parse",
                      [&] { return htapex::ParseSelect(sqls[i]); });
    if (!stmt.ok()) {
      errors[i] = stmt.status();
      continue;
    }
    auto bound = Timed(clock, "sql.bind", [&] {
      return htapex::Bind(system_.catalog(), std::move(stmt).value(), sqls[i]);
    });
    if (!bound.ok()) {
      errors[i] = bound.status();
      continue;
    }
    Staged& s = staged[i];
    s.query = std::move(bound).value();
    auto tp = Timed(clock, "tp.plan", [&] { return tp_.Plan(s.query); });
    if (!tp.ok()) {
      errors[i] = tp.status();
      continue;
    }
    auto ap = Timed(clock, "ap.plan", [&] { return ap_.Plan(s.query); });
    if (!ap.ok()) {
      errors[i] = ap.status();
      continue;
    }
    htapex::HtapQueryOutcome& outcome = s.result.outcome;
    outcome.sql = sqls[i];
    outcome.plans.tp = std::move(tp).value();
    outcome.plans.ap = std::move(ap).value();
    {
      Span span(clock, "engine.latency_model");
      outcome.tp_latency_ms = system_.LatencyMs(outcome.plans.tp);
      outcome.ap_latency_ms = system_.LatencyMs(outcome.plans.ap);
    }
    outcome.faster = outcome.tp_latency_ms <= outcome.ap_latency_ms
                         ? htapex::EngineKind::kTp
                         : htapex::EngineKind::kAp;
  }

  // One router forward pass over the planned queries of the batch, charged
  // evenly per query as the service charges it.
  std::vector<size_t> planned;
  std::vector<const htapex::PlanPair*> pairs;
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (errors[i].ok()) {
      planned.push_back(i);
      pairs.push_back(&staged[i].result.outcome.plans);
    }
  }
  if (!planned.empty()) {
    auto start = std::chrono::steady_clock::now();
    std::vector<htapex::RoutedPair> routed =
        explainer_.router().RouteBatch(pairs);
    double total_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (clock != nullptr) clock->Add("router.embed", total_us, planned.size());
    double per_query_ms =
        total_us / 1000.0 / static_cast<double>(planned.size());
    for (size_t j = 0; j < planned.size(); ++j) {
      ExplainResult& r = staged[planned[j]].result;
      r.embedding = std::move(routed[j].embedding);
      r.router_encode_ms = per_query_ms;
    }
  }

  // Stage two, per query.
  const int k = explainer_.config().retrieval_k;
  const double deadline_ms =
      explainer_.config().resilience.attempt_deadline_ms;
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (!errors[i].ok()) {
      out.emplace_back(errors[i]);
      continue;
    }
    ExplainResult& r = staged[i].result;
    if (cache_ != nullptr) {
      auto start = std::chrono::steady_clock::now();
      std::shared_ptr<const htapex::CachedExplanation> hit =
          cache_->Lookup(r.embedding);
      r.cache_lookup_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      if (clock != nullptr) {
        clock->Add("service.cache_lookup", r.cache_lookup_ms * 1000.0);
      }
      if (hit != nullptr) {
        r.truth = hit->truth;
        r.prompt = hit->prompt;
        r.retrieval = hit->retrieval;
        r.retrieval.search_ms = 0.0;
        r.generation = hit->generation;
        r.generation.timing = htapex::LlmTiming{};
        r.grade = hit->grade;
        r.from_cache = true;
        out.emplace_back(std::move(r));
        continue;
      }
    }
    {
      Span span(clock, "expert.analyze");
      r.truth = expert_.Analyze(r.outcome, staged[i].query);
    }
    {
      Span span(clock, "rag.retrieve");
      r.retrieval = retriever_.Retrieve(r.embedding, k);
    }
    std::string tp_json, ap_json;
    {
      Span span(clock, "plan.explain_json");
      tp_json = r.outcome.plans.tp.Explain();
      ap_json = r.outcome.plans.ap.Explain();
    }
    {
      Span span(clock, "llm.prompt");
      r.prompt = prompt_builder_.Build(r.retrieval.items, r.outcome.sql,
                                       std::move(tp_json), std::move(ap_json),
                                       r.outcome.faster);
    }
    {
      Span span(clock, "llm.generate");
      r.generation = llm_->Explain(r.prompt);
    }
    if (clock != nullptr) {
      clock->Observe("llm.modelled_ms", r.generation.timing.total_ms());
      clock->Observe("llm.none", r.generation.claims.is_none ? 1.0 : 0.0);
    }
    // Without faults the resilient wrapper passes a generation through
    // unless it overruns the attempt deadline or reads as garbled; the
    // service would then have degraded the answer.
    if (r.generation.timing.total_ms() > deadline_ms ||
        htapex::LooksGarbled(r.generation.text)) {
      r.degradation = htapex::DegradationLevel::kBaselineFallback;
    }
    {
      Span span(clock, "expert.grade");
      r.grade = grader_.Grade(r.truth, r.generation.claims);
    }
    if (cache_ != nullptr && r.degradation == htapex::DegradationLevel::kFull) {
      auto cached = std::make_shared<htapex::CachedExplanation>();
      cached->embedding = r.embedding;
      cached->truth = r.truth;
      cached->prompt = r.prompt;
      cached->retrieval = r.retrieval;
      cached->generation = r.generation;
      cached->grade = r.grade;
      cache_->Insert(std::move(cached));
    }
    out.emplace_back(std::move(r));
  }
  return out;
}

bool SameAnswer(const ExplainResult& a, const ExplainResult& b) {
  return a.generation.text == b.generation.text &&
         a.grade.grade == b.grade.grade && a.outcome.faster == b.outcome.faster;
}

bool ExplainOpOk(const Result<ExplainResult>& r) {
  return r.ok() && r->degradation == htapex::DegradationLevel::kFull;
}

namespace {

// Orders nulls first, then numbers by value, then strings.
int CompareValues(const htapex::Value& a, const htapex::Value& b) {
  auto rank = [](const htapex::Value& v) {
    return v.is_null() ? 0 : v.is_string() ? 2 : 1;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  if (a.is_null()) return 0;
  if (a.is_string()) return a.AsString().compare(b.AsString());
  double x = a.AsDouble(), y = b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

bool NearlyEqual(const htapex::Value& a, const htapex::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.AsString() == b.AsString();
  }
  double x = a.AsDouble(), y = b.AsDouble();
  double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= kRelativeTolerance * scale;
}

std::vector<const htapex::Row*> SortedRows(const htapex::QueryResultSet& r) {
  std::vector<const htapex::Row*> rows;
  rows.reserve(r.rows.size());
  for (const htapex::Row& row : r.rows) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const htapex::Row* a, const htapex::Row* b) {
              for (size_t i = 0; i < a->size() && i < b->size(); ++i) {
                int c = CompareValues((*a)[i], (*b)[i]);
                if (c != 0) return c < 0;
              }
              return a->size() < b->size();
            });
  return rows;
}

}  // namespace

bool ResultsAgree(const htapex::QueryResultSet& a,
                  const htapex::QueryResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  std::vector<const htapex::Row*> ra = SortedRows(a), rb = SortedRows(b);
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i]->size() != rb[i]->size()) return false;
    for (size_t c = 0; c < ra[i]->size(); ++c) {
      if (!NearlyEqual((*ra[i])[c], (*rb[i])[c])) return false;
    }
  }
  return true;
}

bool ExecuteOpOk(const Result<htapex::HtapQueryOutcome>& r) {
  return r.ok() && r->tp_result.has_value() && r->ap_result.has_value() &&
         ResultsAgree(*r->tp_result, *r->ap_result);
}

}  // namespace perfbench
