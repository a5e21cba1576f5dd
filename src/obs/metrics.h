#ifndef HTAPEX_OBS_METRICS_H_
#define HTAPEX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace htapex {

/// Lock-free monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter. For between-run resets only (e.g. a bench
  /// reconfiguring fault rates) — not safe to interleave with Inc readers
  /// expecting monotonicity.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket latency histogram, safe for concurrent Record() from any
/// number of threads (all state is relaxed atomics — observability must
/// never serialize the hot path it observes).
///
/// Buckets are exponential: bucket i covers [kMinMs * 2^i, kMinMs * 2^(i+1))
/// milliseconds, spanning ~1 us to ~2 minutes; out-of-range samples clamp
/// into the first/last bucket. Quantiles are reconstructed from bucket
/// counts by linear interpolation, which is the usual fixed-memory
/// trade-off: exact counts and sums, approximate percentiles.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 28;
  static constexpr double kMinMs = 0.001;  // first bucket upper bound ~1 us

  /// Thread-safe; relaxed atomics only.
  void Record(double ms);

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean_ms() const { return count == 0 ? 0.0 : sum_ms / count; }
  };

  /// Consistent-enough snapshot (individual fields are atomic; the set is
  /// not cut at one instant — fine for monitoring).
  Snapshot Snap() const;

  /// Merges two snapshots losslessly at the bucket level and recomputes the
  /// quantiles from the combined buckets. This is the only correct way to
  /// aggregate latency across shards: averaging per-shard p99s answers a
  /// different (and wrong) question, while bucket merge yields the exact
  /// histogram a single global recorder would have produced.
  static Snapshot Merge(const Snapshot& a, const Snapshot& b);

 private:
  static int BucketOf(double ms);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  // Sum/min/max kept in nanoseconds as integers: atomic fetch_add on
  // doubles is not lock-free everywhere, and nanosecond resolution is far
  // below anything we measure.
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> min_ns_{UINT64_MAX};
  std::atomic<uint64_t> max_ns_{0};
};

/// How one field of a metric group renders in the exposition: its family,
/// help text and at most one label. Fields that share a family differ by
/// label value; a field with a null `family` is kept but not exposed.
struct MetricField {
  const char* family = nullptr;
  const char* help = nullptr;
  const char* label = nullptr;  // label key, or nullptr for none
  const char* value = nullptr;  // label value
  bool gauge = false;           // a uint64_t field rendered as a gauge
};

/// A family whose fields differ by the value of one label:
/// `kind("timeout")` is the field labelled {kind="timeout"}.
struct LabeledFamily {
  const char* family;
  const char* help;
  const char* label;
  MetricField operator()(const char* value) const {
    return {family, help, label, value};
  }
};

// Metric groups. Each group declares its fields once, as a template over
// the field type (Counter / LatencyHistogram while live, uint64_t /
// LatencyHistogram::Snapshot in a snapshot), and lists them once in a
// static Fields(f, s...) that calls f(MetricField, s.field...) per field on
// any number of same-shaped groups at once. Snapshot, reset, merge and the
// exposition (ExpositionBuilder::Fields) all walk that one list, so a
// new counter is its declaration plus its Fields() line.

/// Counters for the resilient LLM invocation path (retries, deadlines,
/// circuit breaker, degradation ladder). Updated by ResilientLlm and
/// HtapExplainer; plain relaxed atomics like everything else here.
template <typename T>
struct ResilienceCounters {
  T llm_attempts{};          // every simulated-LLM call attempt
  T llm_retries{};           // attempts beyond the first
  T llm_timeouts{};          // attempts abandoned at the deadline
  T llm_transient_errors{};  // injected transient dependency errors
  T llm_garbled{};           // responses rejected as garbled
  T llm_slow{};              // slow-generation faults absorbed
  T budget_exhausted{};      // calls stopped by the request budget
  T breaker_opens{};         // closed/half-open -> open transitions
  T breaker_half_opens{};    // open -> half-open transitions
  T breaker_closes{};        // half-open -> closed transitions
  T breaker_short_circuits{};  // calls rejected while open
  T fallbacks_baseline{};    // RAG exhausted -> DBG-PT baseline
  T fallbacks_plan_diff{};   // baseline exhausted -> plan-diff report
  T kb_insert_retries{};     // transient KB-write faults retried

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    const LabeledFamily failure{"htapex_llm_failures_total",
                                "LLM attempt failures by kind", "kind"};
    const LabeledFamily breaker{"htapex_breaker_transitions_total",
                                "Circuit-breaker state transitions",
                                "transition"};
    const LabeledFamily fallback{"htapex_fallbacks_total",
                                 "Degradation-ladder fallbacks taken", "rung"};
    f(MetricField{"htapex_llm_attempts_total", "Simulated-LLM call attempts"},
      s.llm_attempts...);
    f(MetricField{"htapex_llm_retries_total", "Attempts beyond the first"},
      s.llm_retries...);
    f(failure("timeout"), s.llm_timeouts...);
    f(failure("transient"), s.llm_transient_errors...);
    f(failure("garbled"), s.llm_garbled...);
    f(MetricField{"htapex_llm_slow_total", "Slow-generation faults absorbed"},
      s.llm_slow...);
    f(MetricField{"htapex_budget_exhausted_total",
                  "Calls stopped by the request budget"},
      s.budget_exhausted...);
    f(breaker("open"), s.breaker_opens...);
    f(breaker("half_open"), s.breaker_half_opens...);
    f(breaker("close"), s.breaker_closes...);
    f(MetricField{"htapex_breaker_short_circuits_total",
                  "Calls rejected while a breaker was open"},
      s.breaker_short_circuits...);
    f(fallback("baseline"), s.fallbacks_baseline...);
    f(fallback("plan_diff"), s.fallbacks_plan_diff...);
    f(MetricField{"htapex_kb_insert_retries_total",
                  "Transient KB-write faults retried"},
      s.kb_insert_retries...);
  }

  /// Zeroes every counter (between-run resets only; see Counter::Reset).
  void Reset() {
    Fields([](const MetricField&, Counter& c) { c.Reset(); }, *this);
  }
};

using ResilienceMetrics = ResilienceCounters<Counter>;

/// Point-in-time copy of ResilienceMetrics.
struct ResilienceStats : ResilienceCounters<uint64_t> {
  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Counters for the knowledge-base durability subsystem (src/durable/):
/// WAL traffic, snapshot lifecycle, and what recovery found. Updated by
/// DurableKnowledgeBase; relaxed atomics like everything else here.
template <typename T>
struct DurabilityCounters {
  T wal_appends{};          // records appended to the WAL
  T wal_fsyncs{};           // fsyncs issued on the active segment
  T wal_bytes{};            // payload + framing bytes appended
  T wal_rotations{};        // segment rotations (one per snapshot)
  T snapshots{};            // snapshots durably installed
  T snapshot_failures{};    // snapshot attempts aborted (fault/IO)
  T snapshot_fallbacks{};   // recoveries that skipped a corrupt newest
                            // snapshot for an older generation
  T replayed_records{};     // WAL records applied during recovery
  T truncated_records{};    // torn tails dropped during recovery
  T corrupt_records{};      // checksum/framing failures during replay
  T recoveries{};           // successful Open() recoveries
  T recovery_micros{};      // total recovery wall time, microseconds
  T gc_files{};             // superseded segments/snapshots deleted

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    f(MetricField{"htapex_wal_appends_total", "WAL records appended"},
      s.wal_appends...);
    f(MetricField{"htapex_wal_fsyncs_total", "WAL fsyncs issued"},
      s.wal_fsyncs...);
    f(MetricField{"htapex_wal_bytes_total", "WAL bytes appended"},
      s.wal_bytes...);
    f(MetricField{}, s.wal_rotations...);
    f(MetricField{"htapex_snapshots_total", "Snapshots durably installed"},
      s.snapshots...);
    f(MetricField{"htapex_snapshot_failures_total",
                  "Snapshot attempts aborted"},
      s.snapshot_failures...);
    f(MetricField{}, s.snapshot_fallbacks...);
    f(MetricField{"htapex_replayed_records_total",
                  "WAL records applied during recovery"},
      s.replayed_records...);
    f(MetricField{}, s.truncated_records...);
    f(MetricField{}, s.corrupt_records...);
    f(MetricField{"htapex_recoveries_total", "Successful startup recoveries"},
      s.recoveries...);
    f(MetricField{}, s.recovery_micros...);
    f(MetricField{}, s.gc_files...);
  }
};

using DurabilityMetrics = DurabilityCounters<Counter>;

/// Point-in-time copy of DurabilityMetrics.
struct DurabilityStats : DurabilityCounters<uint64_t> {
  double recovery_ms() const {
    return static_cast<double>(recovery_micros) / 1000.0;
  }

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// The counters of one ModelLifecycleManager (src/lifecycle/): the
/// retrain → shadow → swap → watch loop. Plain values, kept under the
/// manager's lock.
struct LifecycleCounters {
  uint64_t feedback_samples = 0; // execution-feedback samples recorded
  uint64_t feedback_wal_failures = 0;  // feedback appends lost (wedged log)
  uint64_t drift_detections = 0;
  uint64_t retrains = 0;           // candidate retrains completed
  uint64_t retrain_failures = 0;   // retrain.fail aborts
  uint64_t shadow_runs = 0;        // shadow scorings completed
  uint64_t shadow_rejects = 0;     // candidates rejected by the gate
  uint64_t shadow_stalls = 0;      // shadow.stall beats absorbed
  uint64_t shadow_aborts = 0;      // shadow runs abandoned (too many stalls)
  uint64_t swaps = 0;              // snapshots published over live traffic
  uint64_t swap_failures = 0;      // swap.publish aborts
  uint64_t rollbacks = 0;          // regressions rolled back (incl. manual)
  uint64_t kb_expired = 0;         // stale KB entries expired by curation
  uint64_t kb_backfilled = 0;      // entries re-annotated and re-inserted

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    const LabeledFamily event{"htapex_lifecycle_events_total",
                              "Model-lifecycle events by kind", "event"};
    f(MetricField{"htapex_lifecycle_feedback_samples_total",
                  "Execution-feedback samples recorded"},
      s.feedback_samples...);
    f(MetricField{"htapex_lifecycle_feedback_wal_failures_total",
                  "Feedback appends lost to a wedged log"},
      s.feedback_wal_failures...);
    f(event("drift_detected"), s.drift_detections...);
    f(event("retrain"), s.retrains...);
    f(event("retrain_failure"), s.retrain_failures...);
    f(event("shadow_run"), s.shadow_runs...);
    f(event("shadow_reject"), s.shadow_rejects...);
    f(event("shadow_stall"), s.shadow_stalls...);
    f(event("shadow_abort"), s.shadow_aborts...);
    f(event("swap"), s.swaps...);
    f(event("swap_failure"), s.swap_failures...);
    f(event("rollback"), s.rollbacks...);
    f(event("kb_expired"), s.kb_expired...);
    f(event("kb_backfilled"), s.kb_backfilled...);
  }
};

/// Point-in-time view of one ModelLifecycleManager: its counters plus the
/// identity of the serving snapshot. Merged across shards by
/// MergeLifecycleStats.
struct LifecycleStats : LifecycleCounters {
  std::string phase;             // current state-machine phase name
  uint64_t active_version = 0;   // serving frozen-snapshot version
  uint32_t active_crc = 0;       // serving frozen-snapshot CRC32
  double serving_accuracy = 0.0;   // latest windowed serving accuracy
  double baseline_accuracy = 0.0;  // high-water accuracy since last swap
  double candidate_accuracy = 0.0; // latest shadow-scored candidate

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Fleet aggregation: counters sum; the snapshot identity (version/CRC) and
/// accuracies follow the input with the highest version (per-shard routers
/// version independently — the merged identity is "the newest anywhere");
/// phase is kept only when both agree.
LifecycleStats MergeLifecycleStats(const LifecycleStats& a,
                                   const LifecycleStats& b);

/// Service-level counters and stage latencies, updated by ExplainService
/// workers. `C` is the counter type, `H` the histogram type.
template <typename C, typename H>
struct ServiceCounters {
  C requests{};          // submitted to the service
  C completed{};         // finished (ok or error)
  C errors{};            // bind/plan failures etc.
  C kb_inserts{};        // expert-loop corrections incorporated
  C early_rejections{};  // over-budget requests rejected at dequeue
  // Degradation mix (see DegradationLevel in core/htap_explainer.h).
  C degraded_full{};
  C degraded_baseline{};
  C degraded_plan_diff{};
  C degraded_failed{};   // errors + early rejections

  H encode{};        // router embedding
  H cache_lookup{};  // result-cache probe
  H kb_search{};     // knowledge-base retrieval
  H generate{};      // simulated LLM thinking + generation
  H end_to_end{};    // full per-request latency

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    const LabeledFamily degraded{
        "htapex_degraded_total",
        "Completed requests by degradation-ladder rung", "level"};
    const LabeledFamily stage{"htapex_stage_latency_ms",
                              "Service stage latency summaries", "stage"};
    f(MetricField{"htapex_requests_total", "Requests submitted to the service"},
      s.requests...);
    f(MetricField{"htapex_completed_total", "Requests finished (ok or error)"},
      s.completed...);
    f(MetricField{"htapex_errors_total", "Requests failed in bind/plan/explain"},
      s.errors...);
    f(MetricField{"htapex_kb_inserts_total",
                  "Expert corrections incorporated into the knowledge base"},
      s.kb_inserts...);
    f(MetricField{"htapex_early_rejections_total",
                  "Over-budget requests shed at dequeue"},
      s.early_rejections...);
    f(degraded("full"), s.degraded_full...);
    f(degraded("baseline"), s.degraded_baseline...);
    f(degraded("plan_diff"), s.degraded_plan_diff...);
    f(degraded("failed"), s.degraded_failed...);
    f(stage("encode"), s.encode...);
    f(stage("cache_lookup"), s.cache_lookup...);
    f(stage("kb_search"), s.kb_search...);
    f(stage("generate"), s.generate...);
    f(stage("end_to_end"), s.end_to_end...);
  }
};

using ServiceMetrics = ServiceCounters<Counter, LatencyHistogram>;

/// Result-cache counters. ShardedExplainCache counts them (it is the one
/// place that sees every probe); ExplainService::Stats() copies them here.
struct CacheCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;  // resident entries (a gauge; sums over shards)

  template <typename F, typename... S>
  static void Fields(F&& f, S&... s) {
    const LabeledFamily event{"htapex_cache_events_total",
                              "Result-cache events", "event"};
    f(event("hit"), s.cache_hits...);
    f(event("miss"), s.cache_misses...);
    f(event("insertion"), s.cache_insertions...);
    f(event("eviction"), s.cache_evictions...);
    f(MetricField{"htapex_cache_entries", "Result-cache resident entries",
                  nullptr, nullptr, /*gauge=*/true},
      s.cache_entries...);
  }
};

/// Point-in-time copy of ServiceMetrics plus the cache and the groups the
/// service fronts; cheap to pass around and print.
struct ServiceStats : ServiceCounters<uint64_t, LatencyHistogram::Snapshot>,
                      CacheCounters {
  using Counters = ServiceCounters<uint64_t, LatencyHistogram::Snapshot>;

  /// Snapshot of the explainer's resilience counters (retries, breaker
  /// transitions, fallbacks) taken alongside the service counters.
  ResilienceStats resilience;

  /// Durability counters (WAL/snapshot/recovery) when the service fronts a
  /// DurableKnowledgeBase; all-zero (and not printed) otherwise.
  bool durability_enabled = false;
  DurabilityStats durability;

  /// Model-lifecycle counters when the service runs a ModelLifecycleManager
  /// (ServiceConfig::lifecycle.enabled); all-zero (not printed) otherwise.
  bool lifecycle_enabled = false;
  LifecycleStats lifecycle;

  double cache_hit_rate() const {
    uint64_t probes = cache_hits + cache_misses;
    return probes == 0 ? 0.0 : static_cast<double>(cache_hits) / probes;
  }

  /// Multi-line human-readable summary (used by the CLI and bench).
  std::string ToString() const;
};

namespace metrics_detail {
inline uint64_t Snap(const Counter& c) { return c.Value(); }
inline LatencyHistogram::Snapshot Snap(const LatencyHistogram& h) {
  return h.Snap();
}
inline uint64_t Merge(uint64_t a, uint64_t b) { return a + b; }
inline LatencyHistogram::Snapshot Merge(const LatencyHistogram::Snapshot& a,
                                        const LatencyHistogram::Snapshot& b) {
  return LatencyHistogram::Merge(a, b);
}
}  // namespace metrics_detail

/// Copies every field `Group` lists from live metrics into `out`.
template <typename Group, typename Live, typename Out>
void SnapshotFields(const Live& live, Out* out) {
  Group::Fields(
      [](const MetricField&, const auto& in, auto& o) {
        o = metrics_detail::Snap(in);
      },
      live, *out);
}

/// Point-in-time copy of a live group whose Stats type lists its own fields.
template <typename Stats, typename Live>
Stats SnapshotOf(const Live& live) {
  Stats s;
  SnapshotFields<Stats>(live, &s);
  return s;
}

/// Merges every field `Group` lists: counters sum, histograms merge
/// bucket-wise (LatencyHistogram::Merge — no sample loss, no quantile
/// averaging).
template <typename Group, typename Stats>
void MergeFields(const Stats& a, const Stats& b, Stats* out) {
  Group::Fields(
      [](const MetricField&, const auto& x, const auto& y, auto& o) {
        o = metrics_detail::Merge(x, y);
      },
      a, b, *out);
}

/// Aggregates per-shard ServiceStats into fleet-level stats: every listed
/// field merges (MergeFields), durability is enabled if any input had it,
/// lifecycle merges by MergeLifecycleStats.
ServiceStats MergeServiceStats(const ServiceStats& a, const ServiceStats& b);

}  // namespace htapex

#endif  // HTAPEX_OBS_METRICS_H_
