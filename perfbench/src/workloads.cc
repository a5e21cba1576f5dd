#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "service/explain_service.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/query_generator.h"

namespace perfbench {

using htapex::ExplainResult;
using htapex::Result;
using Clock = std::chrono::steady_clock;

namespace {

// Explain workloads plan at the paper's SF-100 statistics without data;
// execute_mix loads data and plans with statistics of the same scale, so
// estimated and actual rows are comparable (plan.q_error_p90).
constexpr double kExplainStatsSf = 100.0;
constexpr double kExecuteSf = 0.002;

// Request pools. explain_fresh and execute_mix cycle through their pool of
// distinct queries; explain_feedback draws Zipf ranks over its pool. The
// exponent is an assumption taken from web request traces, whose popularity
// is Zipf-like with exponents 0.64-0.83 (Breslau et al., "Web Caching and
// Zipf-like Distributions", INFOCOM 1999); no query-log measurement of this
// system exists. The pool size, like kFeedbackKbEntries and kCorrectEvery,
// is an assumption too.
constexpr int kFreshPool = 4096;
constexpr int kFeedbackPool = 2048;
constexpr double kFeedbackZipfS = 0.8;
constexpr int kExecutePool = 4096;
constexpr uint64_t kPatternSeed = 0x5ea7ull;
// Expert entries bootstrapped into explain_feedback's knowledge base, from
// a generator seed of their own (the fixture does not depend on --seed).
constexpr int kFeedbackKbEntries = 2000;
constexpr uint64_t kKbSeed = 0xb0075eedull;
// One request in kCorrectEvery is corrected, chosen by (seed, index), among
// the first kCorrectionHorizon requests (warm-up included). Every correction
// adds a knowledge-base entry, so without the horizon a faster run would
// search a larger knowledge base and the work per op would depend on the
// speed of the run. Every run passes the horizon, so all end with the same
// ~4,000 entries.
constexpr uint64_t kCorrectEvery = 10;
constexpr uint64_t kCorrectionHorizon = 24000;
// ExplainService workers drain up to 8 queued requests and embed them in
// one router pass; the traced replay composes batches of the same size.
constexpr size_t kServiceBatch = 8;
// engine.rows_touched sums actual rows over this many leading requests,
// which every traced execute_mix run covers, so the count is exact.
constexpr uint64_t kRowsPrefix = 100;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

bool IsExplain(Workload w) { return w != Workload::kExecuteMix; }

// The timed window lasts at least this many ops as well as --seconds, so
// latency_p99_ms always has at least 10 samples beyond it.
constexpr uint64_t kMinLatencySamples = 1000;

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kExplainFresh, Workload::kExplainFeedback,
                     Workload::kExecuteMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kExplainFresh:
      return "explain_fresh";
    case Workload::kExplainFeedback:
      return "explain_feedback";
    case Workload::kExecuteMix:
      return "execute_mix";
  }
  return "unknown";
}

Shape ShapeOf(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kExplainFresh:
      // One worker draining one full batch at a time, with a second batch
      // queued so the worker never waits for the client to refill.
      s.service_workers = 1;
      s.window = 2 * static_cast<int>(kServiceBatch);
      s.warmup_requests = 2000;
      break;
    case Workload::kExplainFeedback:
      // One batch per worker: two per worker measured no steadier.
      s.service_workers = 3;
      s.window = 3 * static_cast<int>(kServiceBatch);
      s.warmup_requests = 4000;
      break;
    case Workload::kExecuteMix:
      // Morsels run inline on the client thread: at this data size a worker
      // pool gained no throughput and made runs noisier on a shared host.
      s.vec_workers = 1;
      s.window = 1;
      s.warmup_requests = 50;
      break;
  }
  return s;
}

RequestPlan::RequestPlan(Workload w, uint64_t seed)
    : workload_(w), seed_(seed) {
  const int size = w == Workload::kExplainFresh      ? kFreshPool
                   : w == Workload::kExplainFeedback ? kFeedbackPool
                                                     : kExecutePool;
  const double sf = IsExplain(w) ? kExplainStatsSf : kExecuteSf;
  // The pattern of pool slot i comes from a QueryGenerator mix drawn with a
  // fixed seed; only the query drawn for that pattern depends on --seed.
  // Every prefix of the sequence thus has the same pattern counts for all
  // seeds, which keeps a run's cost mix, and so its figures, steady
  // across seeds.
  std::vector<htapex::GeneratedQuery> shape =
      htapex::QueryGenerator(sf, kPatternSeed).GenerateMix(size);
  htapex::QueryGenerator gen(sf, Mix(seed, static_cast<uint64_t>(w) + 1));
  std::set<std::string> seen;
  std::map<htapex::QueryPattern, int> occurrences;
  pool_.reserve(shape.size());
  for (const htapex::GeneratedQuery& slot : shape) {
    // The k-th slot of a pattern pins variant k (the generator wraps it),
    // so structural sub-shapes are balanced too. Queries are distinct
    // unless a pattern runs out of parameter values.
    int variant = occurrences[slot.pattern]++;
    std::string sql = gen.Generate(slot.pattern, variant).sql;
    for (int retry = 0; seen.count(sql) > 0 && retry < 16; ++retry) {
      sql = gen.Generate(slot.pattern, variant).sql;
    }
    seen.insert(sql);
    pool_.push_back(std::move(sql));
  }
  if (w == Workload::kExplainFeedback) {
    zipf_cdf_.reserve(pool_.size());
    double total = 0.0;
    for (size_t r = 0; r < pool_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kFeedbackZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

size_t RequestPlan::PoolIndex(uint64_t i) const {
  if (zipf_cdf_.empty()) return static_cast<size_t>(i % pool_.size());
  double u = static_cast<double>(Mix(seed_, i) >> 11) * 0x1.0p-53;
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min(static_cast<size_t>(it - zipf_cdf_.begin()),
                  pool_.size() - 1);
}

uint64_t RequestPlan::CorrectionHorizon() const {
  return workload_ == Workload::kExplainFeedback ? kCorrectionHorizon : 0;
}

bool RequestPlan::Corrects(uint64_t i) const {
  return i < CorrectionHorizon() &&
         Mix(seed_ ^ 0xc0441ec7ull, i) % kCorrectEvery == 0;
}

std::unique_ptr<Fixture> MakeFixture(Workload w) {
  auto f = std::make_unique<Fixture>();
  auto fail = [](const char* what, const htapex::Status& st) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    return nullptr;
  };
  // Set-up is timed in process CPU seconds: it runs on this thread alone,
  // and CPU time, unlike wall time, leaves out what the hypervisor steals.
  double t0 = ProcessCpuSeconds();
  htapex::HtapConfig sys;
  if (IsExplain(w)) {
    sys.stats_scale_factor = kExplainStatsSf;
    sys.data_scale_factor = 0.0;
  } else {
    sys.stats_scale_factor = kExecuteSf;
    sys.data_scale_factor = kExecuteSf;
    sys.ap_exec_mode = htapex::ExecMode::kVectorized;
    sys.vec_workers = ShapeOf(w).vec_workers;
  }
  f->system = std::make_unique<htapex::HtapSystem>();
  htapex::Status st = f->system->Init(sys);
  if (!st.ok()) return fail("system init", st);
  double t1 = ProcessCpuSeconds();
  f->data_load_s = t1 - t0;
  if (!IsExplain(w)) return f;

  htapex::ExplainerConfig config;
  config.faults = "off";  // the timed path is the fault-free one
  f->explainer =
      std::make_unique<htapex::HtapExplainer>(f->system.get(), config);
  auto trained = f->explainer->TrainRouter();
  if (!trained.ok()) return fail("router training", trained.status());
  double t2 = ProcessCpuSeconds();
  f->router_train_s = t2 - t1;

  st = f->explainer->BuildDefaultKnowledgeBase();
  if (!st.ok()) return fail("knowledge base build", st);
  if (w == Workload::kExplainFeedback) {
    htapex::QueryGenerator gen(kExplainStatsSf, kKbSeed);
    std::vector<std::string> sqls;
    for (htapex::GeneratedQuery& q : gen.GenerateMix(kFeedbackKbEntries)) {
      sqls.push_back(std::move(q.sql));
    }
    st = f->explainer->AddToKnowledgeBase(sqls);
    if (!st.ok()) return fail("knowledge base bootstrap", st);
  }
  f->kb_build_s = ProcessCpuSeconds() - t2;
  return f;
}

namespace {

// --- untraced phases ---------------------------------------------------------

struct Phase {
  OpCount ops;
  uint64_t timed_ops = 0;
  double wall_s = 0.0;  // of the timed window
  double cpu_s = 0.0;   // process user+sys CPU in the timed window
  std::vector<double> latency_ms;
  std::vector<double> modelled_ms;
  uint64_t accurate = 0;
  std::vector<double> correction_us;
  double cache_hit_ratio = 0.0;
  // execute_mix: TP result fingerprint hash per request index, for the
  // guard, and how often RunQuery's own results_match said no.
  std::unordered_map<uint64_t, size_t> fingerprints;
  uint64_t fingerprint_mismatches = 0;

  double qps() const {
    return wall_s > 0.0 ? static_cast<double>(timed_ops) / wall_s : 0.0;
  }
  double cpu_ms_per_op() const {
    return timed_ops > 0 ? 1000.0 * cpu_s / static_cast<double>(timed_ops)
                         : 0.0;
  }
};

// Starts the wall and CPU clocks once `warmup` ops have completed; ops
// completed after that, and their latencies, form the timed window.
class PhaseClock {
 public:
  // The timed window holds at least kMinLatencySamples ops, and lasts until
  // every request before `horizon` (warm-up included) has completed.
  PhaseClock(int warmup, uint64_t horizon)
      : warmup_(static_cast<uint64_t>(warmup)),
        min_timed_(std::max(kMinLatencySamples,
                            horizon > warmup_ ? horizon - warmup_ : 0)) {}

  bool timing() const { return timing_; }
  double Elapsed() const {
    return timing_ ? Seconds(start_, Clock::now()) : 0.0;
  }
  // Whether ops should still be issued: until warm-up is over, the window
  // has lasted `seconds` and it holds its minimum of ops.
  bool Running(double seconds) const {
    return !timing_ || timed_ < min_timed_ || Elapsed() < seconds;
  }

  // Counts one completed op; returns whether it fell in the timed window.
  bool Complete(Phase* phase, double latency_ms) {
    if (timing_) {
      ++timed_;
      ++phase->timed_ops;
      phase->latency_ms.push_back(latency_ms);
      return true;
    }
    if (++completed_ >= warmup_) {
      timing_ = true;
      start_ = Clock::now();
      cpu_start_ = ProcessCpuSeconds();
    }
    return false;
  }

  void Finish(Phase* phase) const {
    phase->wall_s = Elapsed();
    phase->cpu_s = ProcessCpuSeconds() - cpu_start_;
  }

 private:
  uint64_t warmup_;
  uint64_t min_timed_;
  uint64_t completed_ = 0;
  uint64_t timed_ = 0;
  bool timing_ = false;
  Clock::time_point start_;
  double cpu_start_ = 0.0;
};

// Closed loop over ExplainService: a window of outstanding requests. Each
// pass collects every finished request, in any order, and refills the
// window with one SubmitBatch. With several workers requests finish out of
// order, so the client does not block on the oldest one: it waits on it
// for at most kPoll and then looks at all of them again.
Phase DriveService(Fixture& f, const RequestPlan& plan, Workload w,
                   double seconds) {
  constexpr auto kPoll = std::chrono::microseconds(200);
  const Shape shape = ShapeOf(w);
  htapex::ServiceConfig config;
  config.num_workers = shape.service_workers;
  config.cache_enabled = w == Workload::kExplainFeedback;
  config.tracing = false;
  config.trace_ring = 0;
  htapex::ExplainService service(f.explainer.get(), config);

  struct Pending {
    uint64_t index;
    Clock::time_point submitted;
    std::future<Result<ExplainResult>> future;
  };
  Phase phase;
  PhaseClock clock(shape.warmup_requests, plan.CorrectionHorizon());
  std::deque<Pending> inflight;
  uint64_t next = 0;
  auto refill = [&] {
    std::vector<std::string> sqls;
    while (inflight.size() + sqls.size() < static_cast<size_t>(shape.window)) {
      sqls.push_back(plan.Sql(next + sqls.size()));
    }
    if (sqls.empty()) return;
    Clock::time_point now = Clock::now();
    auto futures = service.SubmitBatch(std::move(sqls));
    for (auto& fut : futures) inflight.push_back({next++, now, std::move(fut)});
  };
  auto collect = [&](Pending& p) {
    Result<ExplainResult> r = p.future.get();
    double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - p.submitted)
            .count();
    bool ok = ExplainOpOk(r);
    double correction_us = -1.0;
    if (ok && plan.Corrects(p.index)) {
      Clock::time_point t0 = Clock::now();
      ok = service.IncorporateCorrection(*r).ok();
      correction_us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    }
    phase.ops.Record(ok);
    if (clock.Complete(&phase, latency_ms)) {
      if (r.ok()) {
        phase.modelled_ms.push_back(r->end_to_end_ms());
        if (r->grade.grade == htapex::ExplanationGrade::kAccurate) {
          ++phase.accurate;
        }
      }
      if (correction_us >= 0.0) phase.correction_us.push_back(correction_us);
    }
  };

  refill();
  while (!inflight.empty()) {
    size_t collected = 0;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        collect(*it);
        it = inflight.erase(it);
        ++collected;
      } else {
        ++it;
      }
    }
    if (collected == 0) {
      // One worker finishes requests in order: block on the oldest.
      if (shape.service_workers == 1) {
        inflight.front().future.wait();
      } else {
        inflight.front().future.wait_for(kPoll);
      }
      continue;
    }
    if (clock.Running(seconds)) refill();
  }
  clock.Finish(&phase);
  htapex::ShardedExplainCache::Stats cs = service.CacheStats();
  if (cs.hits + cs.misses > 0) {
    phase.cache_hit_ratio = static_cast<double>(cs.hits) /
                            static_cast<double>(cs.hits + cs.misses);
  }
  return phase;
}

// One query after another through HtapSystem::RunQuery, moving to the next
// CPU every kOpsPerCpu queries.
Phase DriveEngines(Fixture& f, const RequestPlan& plan, double seconds) {
  constexpr uint64_t kOpsPerCpu = 128;
  Phase phase;
  PhaseClock clock(ShapeOf(Workload::kExecuteMix).warmup_requests,
                   plan.CorrectionHorizon());
  CpuRotation rotation;
  for (uint64_t i = 0; clock.Running(seconds); ++i) {
    if (i % kOpsPerCpu == 0) rotation.Next();
    Clock::time_point t0 = Clock::now();
    Result<htapex::HtapQueryOutcome> r = f.system->RunQuery(plan.Sql(i));
    double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    bool ok = ExecuteOpOk(r);
    phase.ops.Record(ok);
    if (ok) {
      phase.fingerprints[i] =
          std::hash<std::string>{}(r->tp_result->Fingerprint());
      if (!r->results_match) ++phase.fingerprint_mismatches;
    }
    if (clock.Complete(&phase, latency_ms)) {
      if (r.ok()) {
        phase.modelled_ms.push_back(
            std::min(r->tp_latency_ms, r->ap_latency_ms));
      }
      if (ok) ++phase.accurate;
    }
  }
  clock.Finish(&phase);
  return phase;
}

// --- traced phases -----------------------------------------------------------

struct Traced {
  OpCount ops;
  LayerClock layers;
  uint64_t timed_requests = 0;
  uint64_t guard_mismatches = 0;
  double busy_s = 0.0;  // composed time, excluding guard calls
  std::vector<double> q_errors;
  uint64_t rows_touched = 0;
  size_t kb_entries = 0;

  double qps() const {
    return busy_s > 0.0 ? static_cast<double>(timed_requests) / busy_s : 0.0;
  }
};

// Replays the request sequence through the composed pipeline on one
// thread. Every composed miss is checked against the service's own answer
// for the same SQL and knowledge base (a one-worker, cache-off service);
// a cache hit serves an answer that was checked when it was composed.
Traced ReplayExplain(Fixture& f, const RequestPlan& plan, Workload w,
                     double seconds) {
  const Shape shape = ShapeOf(w);
  ComposedExplainer composed(f, w == Workload::kExplainFeedback);
  htapex::ServiceConfig config;
  config.num_workers = 1;
  config.cache_enabled = false;
  config.tracing = false;
  config.trace_ring = 0;
  htapex::ExplainService guard(f.explainer.get(), config);

  Traced t;
  uint64_t next = 0;
  const uint64_t warmup = static_cast<uint64_t>(shape.warmup_requests);
  // Like the untraced phase, the replay runs past every correction.
  const uint64_t min_requests = std::max(warmup, plan.CorrectionHorizon());
  while (next < min_requests || t.busy_s < seconds) {
    bool timed = next >= warmup;
    std::vector<std::string> sqls;
    for (size_t j = 0; j < kServiceBatch; ++j) {
      sqls.push_back(plan.Sql(next + j));
    }
    Clock::time_point t0 = Clock::now();
    auto results = composed.ExplainBatch(sqls, timed ? &t.layers : nullptr);
    if (timed) {
      t.busy_s += Seconds(t0, Clock::now());
      t.timed_requests += sqls.size();
    }
    // Guard every answer of the batch against the knowledge base it was
    // composed from, then apply the batch's corrections in index order.
    std::vector<bool> ok(sqls.size());
    for (size_t j = 0; j < sqls.size(); ++j) {
      ok[j] = ExplainOpOk(results[j]);
      if (ok[j] && !results[j]->from_cache) {
        Result<ExplainResult> served = guard.ExplainSync(sqls[j]);
        if (!served.ok() || !SameAnswer(*served, *results[j])) {
          ok[j] = false;
          ++t.guard_mismatches;
        }
      }
    }
    for (size_t j = 0; j < sqls.size(); ++j, ++next) {
      if (ok[j] && plan.Corrects(next)) {
        ok[j] = guard.IncorporateCorrection(*results[j]).ok();
      }
      t.ops.Record(ok[j]);
    }
  }
  t.kb_entries = f.explainer->knowledge_base().size();
  return t;
}

void CollectQErrors(const htapex::PlanNode& node,
                    const htapex::ExecStats& stats, std::vector<double>* out) {
  auto it = stats.actual_rows.find(&node);
  if (it != stats.actual_rows.end()) {
    double est = std::max(node.estimated_rows, 1.0);
    double act = std::max(static_cast<double>(it->second), 1.0);
    out->push_back(std::max(est / act, act / est));
  }
  for (const auto& child : node.children) CollectQErrors(*child, stats, out);
}

// Replays execute_mix with each layer called on its own: both plans run
// through the row executor (TP) and the vectorized executor (AP). The
// guard compares the two results with each other and the TP fingerprint
// with the one RunQuery produced for the same request untraced.
Traced ReplayEngines(Fixture& f, const RequestPlan& plan, double seconds,
                     const Phase& untraced) {
  const htapex::HtapSystem& sys = *f.system;
  htapex::TpOptimizer tp_opt(sys.catalog(), sys.config().tp_cost);
  htapex::ApOptimizer ap_opt(sys.catalog(), sys.config().ap_cost);
  Traced t;
  const uint64_t warmup =
      static_cast<uint64_t>(ShapeOf(Workload::kExecuteMix).warmup_requests);
  for (uint64_t i = 0; i < warmup || t.busy_s < seconds; ++i) {
    bool timed = i >= warmup;
    LayerClock* clock = timed ? &t.layers : nullptr;
    const std::string& sql = plan.Sql(i);
    Clock::time_point t0 = Clock::now();
    auto stmt =
        Timed(clock, "sql.parse", [&] { return htapex::ParseSelect(sql); });
    bool ok = stmt.ok();
    Result<htapex::BoundQuery> bound = htapex::Status::Internal("unbound");
    if (ok) {
      bound = Timed(clock, "sql.bind", [&] {
        return htapex::Bind(sys.catalog(), std::move(stmt).value(), sql);
      });
      ok = bound.ok();
    }
    if (ok) {
      auto tp = Timed(clock, "tp.plan", [&] { return tp_opt.Plan(*bound); });
      auto ap = Timed(clock, "ap.plan", [&] { return ap_opt.Plan(*bound); });
      ok = tp.ok() && ap.ok();
      if (ok) {
        {
          Span span(clock, "engine.latency_model");
          (void)sys.LatencyMs(*tp);
          (void)sys.LatencyMs(*ap);
        }
        htapex::ExecStats tp_stats, ap_stats;
        auto tp_rows = Timed(clock, "engine.tp_exec", [&] {
          return sys.ExecuteWithMode(htapex::ExecMode::kRow, *tp, *bound,
                                     &tp_stats);
        });
        auto ap_rows = Timed(clock, "engine.ap_exec", [&] {
          return sys.ExecuteWithMode(htapex::ExecMode::kVectorized, *ap,
                                     *bound, &ap_stats);
        });
        ok = tp_rows.ok() && ap_rows.ok();
        if (ok) {
          ok = ResultsAgree(*tp_rows, *ap_rows);
          auto seen = untraced.fingerprints.find(i);
          if (ok && seen != untraced.fingerprints.end() &&
              seen->second !=
                  std::hash<std::string>{}(tp_rows->Fingerprint())) {
            ok = false;
          }
          if (!ok) ++t.guard_mismatches;
        }
        if (timed) {
          CollectQErrors(*tp->root, tp_stats, &t.q_errors);
          CollectQErrors(*ap->root, ap_stats, &t.q_errors);
        }
        if (i < kRowsPrefix) {
          for (const auto* stats : {&tp_stats, &ap_stats}) {
            for (const auto& [node, rows] : stats->actual_rows) {
              t.rows_touched += rows;
            }
          }
        }
      }
    }
    if (timed) {
      t.busy_s += Seconds(t0, Clock::now());
      ++t.timed_requests;
    }
    t.ops.Record(ok);
  }
  return t;
}

// --- metrics -----------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total, data_load, router_train, kb_build;
  void Add(const Fixture& f) {
    total.push_back(f.total_s());
    data_load.push_back(f.data_load_s);
    router_train.push_back(f.router_train_s);
    kb_build.push_back(f.kb_build_s);
  }
};

// Builds at least `count` fixtures, and more (up to kMaxSetups) until they
// took `min_seconds`. Returns the last one.
std::unique_ptr<Fixture> BuildFixtures(const RunOptions& o, int count,
                                       double min_seconds, SetupTimes* times) {
  constexpr int kMaxSetups = 25;
  std::unique_ptr<Fixture> f;
  double spent = 0.0;
  CpuRotation rotation;  // each set-up on the next CPU
  for (int i = 0; i < count || (spent < min_seconds && i < kMaxSetups); ++i) {
    rotation.Next();
    f.reset();  // one fixture alive at a time keeps peak RSS to one
    f = MakeFixture(o.workload);
    if (f == nullptr) return nullptr;
    times->Add(*f);
    spent += f->total_s();
  }
  return f;
}

Phase RunUntraced(Fixture& f, const RequestPlan& plan, const RunOptions& o,
                  double seconds) {
  return IsExplain(o.workload) ? DriveService(f, plan, o.workload, seconds)
                               : DriveEngines(f, plan, seconds);
}

// Wall throughput and latency are printed but not gated: on a shared host
// they move with the CPU time the hypervisor steals (twice as slow at 20%
// steal), which CPU time per op leaves out.
void EndToEnd(const Phase& p, const SetupTimes& setup, RunReport* report) {
  Metrics& m = report->metrics;
  m["cpu_ms_per_op"] = {p.cpu_ms_per_op(), "ms"};
  m["modelled_latency_p50_ms"] = {Percentile(p.modelled_ms, 0.50), "ms"};
  m["modelled_latency_p99_ms"] = {Percentile(p.modelled_ms, 0.99), "ms"};
  m["accuracy_pct"] = {
      p.timed_ops > 0 ? 100.0 * static_cast<double>(p.accurate) /
                            static_cast<double>(p.timed_ops)
                      : 0.0,
      "%"};
  m["setup_s"] = {Median(setup.total), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  report->notes += htapex::StrFormat(
      "wall (not gated): throughput_qps %.1f req/s, latency_p50_ms %.4f ms, "
      "latency_p99_ms %.4f ms\n",
      p.qps(), Percentile(p.latency_ms, 0.50), Percentile(p.latency_ms, 0.99));
  report->notes += htapex::StrFormat(
      "samples: %zu timed latencies (%zu beyond p99), %zu set-ups, %llu "
      "ops attempted incl. warm-up, %llu RunQuery fingerprint mismatches\n",
      p.latency_ms.size(), p.latency_ms.size() / 100, setup.total.size(),
      static_cast<unsigned long long>(p.ops.attempted),
      static_cast<unsigned long long>(p.fingerprint_mismatches));
}

// Layers and the name of their span in LayerClock.
const char* const kTimedLayers[][2] = {
    {"sql.parse_us", "sql.parse"},
    {"sql.bind_us", "sql.bind"},
    {"tp.plan_us", "tp.plan"},
    {"ap.plan_us", "ap.plan"},
    {"plan.explain_json_us", "plan.explain_json"},
    {"router.embed_us", "router.embed"},
    {"expert.analyze_us", "expert.analyze"},
    {"expert.grade_us", "expert.grade"},
    {"llm.prompt_us", "llm.prompt"},
    {"llm.generate_us", "llm.generate"},
    {"rag.retrieve_us", "rag.retrieve"},
    {"service.cache_lookup_us", "service.cache_lookup"},
    {"engine.latency_model_us", "engine.latency_model"},
    {"engine.tp_exec_us", "engine.tp_exec"},
    {"engine.ap_exec_us", "engine.ap_exec"},
};

void PerLayer(const Phase& untraced, const Traced& traced,
              const SetupTimes& setup, RunReport* report) {
  Metrics& m = report->metrics;
  const LayerClock& layers = traced.layers;
  std::string table = "layer                       mean_us      calls  share\n";
  const double total_us = layers.TotalUs();
  for (const auto& [metric, span] : kTimedLayers) {
    m[metric] = {layers.MeanUs(span), "us"};
    if (layers.Calls(span) == 0) continue;
    auto it = layers.spans().find(span);
    table += htapex::StrFormat(
        "%-24s %10.2f %10llu %5.1f%%\n", span, layers.MeanUs(span),
        static_cast<unsigned long long>(layers.Calls(span)),
        total_us > 0 ? 100.0 * it->second.first / total_us : 0.0);
  }
  report->notes += table;
  m["plan.q_error_p90"] = {Percentile(traced.q_errors, 0.90), "ratio"};
  m["llm.modelled_ms"] = {layers.Mean("llm.modelled_ms"), "ms"};
  m["llm.none_ratio"] = {layers.Mean("llm.none"), "ratio"};
  m["rag.correction_us"] = {Percentile(untraced.correction_us, 0.5), "us"};
  m["rag.kb_entries"] = {static_cast<double>(traced.kb_entries), "count"};
  m["service.cache_hit_ratio"] = {untraced.cache_hit_ratio, "ratio"};
  double untraced_mean_us = 0.0;
  for (double ms : untraced.latency_ms) untraced_mean_us += 1000.0 * ms;
  if (!untraced.latency_ms.empty()) {
    untraced_mean_us /= static_cast<double>(untraced.latency_ms.size());
  }
  double span_sum_us =
      traced.timed_requests > 0
          ? total_us / static_cast<double>(traced.timed_requests)
          : 0.0;
  m["service.overhead_us"] = {untraced_mean_us - span_sum_us, "us"};
  m["engine.rows_touched"] = {static_cast<double>(traced.rows_touched),
                              "count"};
  m["setup.data_load_s"] = {Median(setup.data_load), "s"};
  m["setup.router_train_s"] = {Median(setup.router_train), "s"};
  m["setup.kb_build_s"] = {Median(setup.kb_build), "s"};
  m["trace.untraced_qps"] = {untraced.qps(), "req/s"};
  m["trace.untraced_p50_ms"] = {Percentile(untraced.latency_ms, 0.50), "ms"};
  m["trace.untraced_p99_ms"] = {Percentile(untraced.latency_ms, 0.99), "ms"};
  m["trace.traced_qps"] = {traced.qps(), "req/s"};
  m["trace.traced_to_untraced"] = {
      untraced.qps() > 0 ? traced.qps() / untraced.qps() : 0.0, "ratio"};
  m["guard.mismatches"] = {static_cast<double>(traced.guard_mismatches),
                            "count"};
  m["engine.fingerprint_mismatches"] = {
      static_cast<double>(untraced.fingerprint_mismatches), "count"};
}

}  // namespace

bool RunWorkload(const RunOptions& o, RunReport* report) {
  htapex::SetGlobalLogLevel(htapex::LogLevel::kWarning);
  RequestPlan plan(o.workload, o.seed);
  SetupTimes setup;
  if (!o.trace) {
    // Back-to-back set-ups in one process differ by up to a fifth on a
    // shared host, so setup_s is the median of several, two per CPU on a
    // 4-CPU host.
    std::unique_ptr<Fixture> f = BuildFixtures(o, 8, 2.0, &setup);
    if (f == nullptr) return false;
    Phase p = RunUntraced(*f, plan, o, o.seconds);
    report->ops = p.ops;
    EndToEnd(p, setup, report);
    return true;
  }
  // Traced mode: each phase starts from a freshly built fixture, so the
  // replay sees the state the untraced phase started from.
  std::unique_ptr<Fixture> f = BuildFixtures(o, 1, 0.0, &setup);
  if (f == nullptr) return false;
  Phase untraced = RunUntraced(*f, plan, o, o.seconds / 2);
  f = BuildFixtures(o, 1, 0.0, &setup);
  if (f == nullptr) return false;
  Traced traced = IsExplain(o.workload)
                      ? ReplayExplain(*f, plan, o.workload, o.seconds / 2)
                      : ReplayEngines(*f, plan, o.seconds / 2, untraced);
  report->ops.attempted = untraced.ops.attempted + traced.ops.attempted;
  report->ops.failed = untraced.ops.failed + traced.ops.failed;
  PerLayer(untraced, traced, setup, report);
  return true;
}

}  // namespace perfbench
