// Unit tests of the benchmark: request-plan determinism, the composed
// pipeline against HtapExplainer::Explain, and the op checks.
//
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target perfbench_test
//   <dir>/perfbench_test
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/logging.h"
#include "workload/query_generator.h"

namespace {

using perfbench::Workload;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void SameSeedSameSequenceAndCorrections() {
  for (Workload w : {Workload::kExplainFresh, Workload::kExplainFeedback,
                     Workload::kExecuteMix}) {
    perfbench::RequestPlan a(w, 7), b(w, 7), other(w, 8);
    uint64_t corrections = 0, late_corrections = 0, differing = 0;
    for (uint64_t i = 0; i < 30000; ++i) {
      EXPECT(a.Sql(i) == b.Sql(i));
      EXPECT(a.Corrects(i) == b.Corrects(i));
      if (a.Corrects(i)) {
        ++(i < a.CorrectionHorizon() ? corrections : late_corrections);
      }
      if (a.Sql(i) != other.Sql(i)) ++differing;
    }
    EXPECT(differing > 15000);  // another seed is another sequence
    EXPECT(late_corrections == 0);
    if (w == Workload::kExplainFeedback) {
      // ~10% of the requests before the horizon.
      EXPECT(a.CorrectionHorizon() == 24000);
      EXPECT(corrections > 2000 && corrections < 2800);
    } else {
      EXPECT(a.CorrectionHorizon() == 0 && corrections == 0);
    }
  }
}

void ComposedPipelineEqualsExplain() {
  auto fixture = perfbench::MakeFixture(Workload::kExplainFresh);
  EXPECT(fixture != nullptr);
  if (fixture == nullptr) return;
  perfbench::ComposedExplainer composed(*fixture, /*use_cache=*/false);
  htapex::QueryGenerator gen(100.0, 0x7e57);
  std::vector<std::string> sqls;
  for (htapex::GeneratedQuery& q : gen.GenerateMix(48)) {
    sqls.push_back(std::move(q.sql));
  }
  perfbench::LayerClock clock;
  for (size_t start = 0; start < sqls.size(); start += 8) {
    std::vector<std::string> batch(sqls.begin() + start,
                                   sqls.begin() + start + 8);
    auto results = composed.ExplainBatch(batch, &clock);
    EXPECT(results.size() == batch.size());
    for (size_t j = 0; j < batch.size(); ++j) {
      auto expected = fixture->explainer->Explain(batch[j]);
      EXPECT(expected.ok() && results[j].ok());
      if (!expected.ok() || !results[j].ok()) continue;
      EXPECT(perfbench::SameAnswer(*results[j], *expected));
      EXPECT(results[j]->degradation == expected->degradation);
      EXPECT(results[j]->outcome.plans.tp.Explain() ==
             expected->outcome.plans.tp.Explain());
      EXPECT(results[j]->outcome.plans.ap.Explain() ==
             expected->outcome.plans.ap.Explain());
      EXPECT(results[j]->generation.timing.total_ms() ==
             expected->generation.timing.total_ms());
      EXPECT(results[j]->retrieval.entry_ids == expected->retrieval.entry_ids);
    }
  }
  // Every layer on the miss path was timed once per query.
  for (const char* layer :
       {"sql.parse", "sql.bind", "tp.plan", "ap.plan", "engine.latency_model",
        "router.embed", "expert.analyze", "rag.retrieve", "plan.explain_json",
        "llm.prompt", "llm.generate", "expert.grade"}) {
    EXPECT(clock.Calls(layer) == sqls.size());
  }

  // A different answer fails the guard.
  auto a = fixture->explainer->Explain(sqls[0]);
  auto b = fixture->explainer->Explain(sqls[0]);
  EXPECT(a.ok() && b.ok());
  if (a.ok() && b.ok()) {
    EXPECT(perfbench::SameAnswer(*a, *b));
    b->generation.text += " ";
    EXPECT(!perfbench::SameAnswer(*a, *b));
  }
}

void ForcedMismatchIsAFailedOp() {
  auto fixture = perfbench::MakeFixture(Workload::kExecuteMix);
  EXPECT(fixture != nullptr);
  if (fixture == nullptr) return;
  auto outcome = fixture->system->RunQuery(
      "SELECT l_suppkey, SUM(l_extendedprice) AS rev FROM lineitem "
      "GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10");
  EXPECT(perfbench::ExecuteOpOk(outcome));
  if (!perfbench::ExecuteOpOk(outcome)) return;
  EXPECT(!outcome->ap_result->rows.empty());

  // A change far below any real difference, as two summation orders give,
  // still agrees; a wrong value does not, and is counted as failed.
  htapex::Value& cell = outcome->ap_result->rows[0][1];
  double v = cell.AsDouble();
  cell = htapex::Value::Double(v * (1.0 + 1e-13));
  EXPECT(perfbench::ExecuteOpOk(outcome));
  cell = htapex::Value::Double(v * 1.01);
  EXPECT(!perfbench::ExecuteOpOk(outcome));
  perfbench::OpCount ops;
  ops.Record(perfbench::ExecuteOpOk(outcome));
  EXPECT(ops.attempted == 1 && ops.failed == 1);

  // A missing row fails too.
  cell = htapex::Value::Double(v);
  outcome->ap_result->rows.pop_back();
  EXPECT(!perfbench::ExecuteOpOk(outcome));
}

// The traced feedback run applies corrections between batches; each batch
// is guarded against the knowledge base it was composed from, so no answer
// is a guard mismatch, and the untraced phase has at least 1,000 latency
// samples however short the run.
void TracedFeedbackRunHasNoGuardMismatch() {
  perfbench::RunOptions o;
  o.workload = Workload::kExplainFeedback;
  o.seed = 5;
  o.seconds = 0.2;
  o.trace = true;
  perfbench::RunReport report;
  EXPECT(perfbench::RunWorkload(o, &report));
  EXPECT(report.ops.attempted > 0 && report.ops.failed == 0);
  EXPECT(report.metrics["guard.mismatches"].value == 0.0);
  // The replay ran past the horizon: the bootstrapped 2,020 entries plus
  // one per correction.
  EXPECT(report.metrics["rag.kb_entries"].value > 4000.0);
}

void ShortRunStillHasTailSamples() {
  perfbench::RunOptions o;
  o.workload = Workload::kExecuteMix;
  o.seed = 5;
  o.seconds = 0.01;
  perfbench::RunReport report;
  EXPECT(perfbench::RunWorkload(o, &report));
  unsigned long long samples = 0;
  size_t at = report.notes.find("samples: ");
  EXPECT(at != std::string::npos);
  if (at == std::string::npos) return;
  EXPECT(std::sscanf(report.notes.c_str() + at, "samples: %llu", &samples) ==
         1);
  EXPECT(samples >= 1000);
}

}  // namespace

int main() {
  htapex::SetGlobalLogLevel(htapex::LogLevel::kWarning);
  SameSeedSameSequenceAndCorrections();
  ComposedPipelineEqualsExplain();
  ForcedMismatchIsAFailedOp();
  TracedFeedbackRunHasNoGuardMismatch();
  ShortRunStillHasTailSamples();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
