// The repository benchmark: three closed-loop workloads over the public
// htapex API, measured untraced for the end-to-end metrics and replayed
// through a composed, span-timed pipeline for the per-layer metrics.
#ifndef HTAPEX_PERFBENCH_BENCH_H_
#define HTAPEX_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/htap_explainer.h"
#include "engine/htap_system.h"
#include "service/explain_cache.h"

namespace perfbench {

enum class Workload { kExplainFresh, kExplainFeedback, kExecuteMix };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Thread layout of one workload. The client thread that issues the
/// requests is one more.
struct Shape {
  int service_workers = 0;  // ExplainService pool (explain workloads)
  int vec_workers = 0;      // vectorized AP executor (execute_mix)
  int window = 1;           // outstanding requests of the closed loop
  int warmup_requests = 0;  // completed untimed before the clock starts
};
Shape ShapeOf(Workload w);

/// The requests a run issues, a pure function of (workload, seed). Request
/// i is `Sql(i)`; the feedback workload also corrects request i when
/// `Corrects(i)`. Both are defined for every index, so a run of any length
/// and its traced replay see the same sequence.
class RequestPlan {
 public:
  RequestPlan(Workload w, uint64_t seed);

  const std::string& Sql(uint64_t i) const { return pool_[PoolIndex(i)]; }
  bool Corrects(uint64_t i) const;
  /// No request at or after this index is corrected; 0 when none is.
  uint64_t CorrectionHorizon() const;

 private:
  size_t PoolIndex(uint64_t i) const;

  Workload workload_;
  uint64_t seed_;
  std::vector<std::string> pool_;
  std::vector<double> zipf_cdf_;  // feedback only
};

/// Per-layer span totals. Spans are recorded by the benchmark around calls
/// into each layer's public functions.
class LayerClock {
 public:
  void Add(const std::string& layer, double us, uint64_t calls = 1);
  double MeanUs(const std::string& layer) const;
  uint64_t Calls(const std::string& layer) const;
  /// Sum of all span time.
  double TotalUs() const;
  const std::map<std::string, std::pair<double, uint64_t>>& spans() const {
    return spans_;
  }

  /// Non-time observations (modelled times, ratios) kept apart from spans.
  void Observe(const std::string& name, double value);
  double Mean(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, uint64_t>> spans_;   // total, calls
  std::map<std::string, std::pair<double, uint64_t>> values_;  // total, count
};

/// Wall time of one scope, added to a LayerClock (if any) as one call.
class Span {
 public:
  Span(LayerClock* clock, const char* layer)
      : clock_(clock),
        layer_(layer),
        start_(std::chrono::steady_clock::now()) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* clock_;
  const char* layer_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs `f` inside a span and returns its result.
template <typename F>
auto Timed(LayerClock* clock, const char* layer, F&& f) {
  Span span(clock, layer);
  return f();
}

/// Set-up state of one run: the system and, for explain workloads, the
/// trained explainer with its knowledge base. Set-up times are process CPU
/// seconds.
struct Fixture {
  std::unique_ptr<htapex::HtapSystem> system;
  std::unique_ptr<htapex::HtapExplainer> explainer;  // null for execute_mix
  double data_load_s = 0.0;
  double router_train_s = 0.0;
  double kb_build_s = 0.0;
  double total_s() const { return data_load_s + router_train_s + kb_build_s; }
};

/// Builds the fixture of a workload; null (with a message on stderr) on
/// failure.
std::unique_ptr<Fixture> MakeFixture(Workload w);

/// The explain pipeline composed from public layer calls in the order
/// HtapExplainer runs them, each call wrapped in a span. With a cache it
/// also mirrors ExplainService's result cache on a benchmark-owned
/// ShardedExplainCache.
class ComposedExplainer {
 public:
  ComposedExplainer(const Fixture& fixture, bool use_cache);

  /// Composes one admission batch: per query parse, bind, tp/ap plan and
  /// latency model, then one RouteBatch over the batch, then per query the
  /// cache probe or analysis, retrieval, plan JSON, prompt, generation and
  /// grading. A result whose answer is below DegradationLevel::kFull (the
  /// service would have degraded it) carries that level.
  std::vector<htapex::Result<htapex::ExplainResult>> ExplainBatch(
      const std::vector<std::string>& sqls, LayerClock* clock);

 private:
  const htapex::HtapSystem& system_;
  const htapex::HtapExplainer& explainer_;
  htapex::TpOptimizer tp_;
  htapex::ApOptimizer ap_;
  htapex::ExpertAnalyzer expert_;
  htapex::ExpertGrader grader_;
  htapex::Retriever retriever_;
  htapex::PromptBuilder prompt_builder_;
  std::unique_ptr<htapex::SimulatedLlm> llm_;
  std::unique_ptr<htapex::ShardedExplainCache> cache_;  // null when off
};

/// True when two answers agree on explanation text, grade and faster
/// engine: the composition guard.
bool SameAnswer(const htapex::ExplainResult& a, const htapex::ExplainResult& b);

/// An explain op succeeds when it returned OK at full degradation level.
bool ExplainOpOk(const htapex::Result<htapex::ExplainResult>& r);

/// True when two result sets hold the same rows in any order, numbers
/// compared to a relative 1e-9. QueryResultSet::Fingerprint rounds numbers
/// to six significant digits, so two sums that differ only in summation
/// order can print differently when they sit on a rounding boundary; this
/// comparison does not have that false positive and is otherwise stricter.
bool ResultsAgree(const htapex::QueryResultSet& a,
                  const htapex::QueryResultSet& b);

/// An execute op succeeds when both engines returned results that agree
/// (ResultsAgree; RunQuery's own results_match is counted apart).
bool ExecuteOpOk(const htapex::Result<htapex::HtapQueryOutcome>& r);

/// Ops attempted and failed.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Options of one benchmark run.
struct RunOptions {
  Workload workload = Workload::kExplainFresh;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Outcome of one run: the ops and every metric of the chosen mode.
struct RunReport {
  OpCount ops;
  Metrics metrics;
  std::string notes;  // human-readable layer table, printed before the JSON
};

/// Runs a workload. Trace off: every end-to-end metric. Trace on: an
/// untraced and a traced phase of seconds/2 each, and every per-layer
/// metric. False (with a message on stderr) when set-up fails.
bool RunWorkload(const RunOptions& options, RunReport* report);

// --- host.cc ---------------------------------------------------------------

/// Process user+sys CPU seconds so far.
double ProcessCpuSeconds();
/// Peak resident set size in MB.
double PeakRssMb();
/// Effective parallelism of `threads` spinning threads: how many times the
/// work of one thread they complete in one thread's time.
double EffectiveParallelism(int threads);
/// Moves the calling thread round the CPUs it may run on. On a shared host
/// the vCPUs run at different and changing speeds, so single-threaded work
/// spread evenly over all of them gives a steadier figure than work left on
/// whichever vCPU the scheduler chose. Restores the thread's affinity when
/// destroyed, before the caller starts threads that would inherit it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the thread to the next CPU; no-op with fewer than two CPUs.
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// One-line JSON host stamp for a workload run.
std::string HostStamp(Workload w);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // HTAPEX_PERFBENCH_BENCH_H_
