#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace htapex {

namespace {

/// Upper bound of bucket i in milliseconds.
double BucketUpperMs(int i) {
  return LatencyHistogram::kMinMs * std::pow(2.0, i + 1);
}

double BucketLowerMs(int i) {
  return i == 0 ? 0.0 : LatencyHistogram::kMinMs * std::pow(2.0, i);
}

/// Quantile q (0..1) by linear interpolation within the containing bucket.
double QuantileFromBuckets(
    const std::array<uint64_t, LatencyHistogram::kNumBuckets>& buckets,
    uint64_t count, double q) {
  if (count == 0) return 0.0;
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    uint64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      double lo = BucketLowerMs(i), hi = BucketUpperMs(i);
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return BucketUpperMs(LatencyHistogram::kNumBuckets - 1);
}

/// Sets p50/p95/p99 from the buckets. Bucket interpolation can overshoot
/// the largest observed sample (the estimate lands anywhere inside the
/// containing bucket), so quantiles clamp to the exact [min, max] tracked
/// alongside the buckets.
void FillQuantiles(LatencyHistogram::Snapshot* s) {
  auto clamped = [s](double q) {
    return std::min(std::max(QuantileFromBuckets(s->buckets, s->count, q),
                             s->min_ms),
                    s->max_ms);
  };
  s->p50_ms = clamped(0.50);
  s->p95_ms = clamped(0.95);
  s->p99_ms = clamped(0.99);
}

uint64_t ToNanos(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(ms * 1e6));
}

double ToMillis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int LatencyHistogram::BucketOf(double ms) {
  if (ms <= kMinMs) return 0;
  int b = static_cast<int>(std::floor(std::log2(ms / kMinMs)));
  return std::clamp(b, 0, kNumBuckets - 1);
}

void LatencyHistogram::Record(double ms) {
  if (ms < 0.0 || !std::isfinite(ms)) ms = 0.0;
  buckets_[static_cast<size_t>(BucketOf(ms))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t ns = ToNanos(ms);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t cur = min_ns_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  // Zero-sample guard: with no records, min_ns_ still holds its UINT64_MAX
  // sentinel and the quantile interpolation has nothing to interpolate —
  // return all-zero instead of leaking the sentinel into min/max/quantiles.
  if (s.count == 0) return s;
  for (int i = 0; i < kNumBuckets; ++i) {
    s.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  s.sum_ms = ToMillis(sum_ns_.load(std::memory_order_relaxed));
  uint64_t mn = min_ns_.load(std::memory_order_relaxed);
  s.min_ms = (mn == UINT64_MAX) ? 0.0 : ToMillis(mn);
  s.max_ms = ToMillis(max_ns_.load(std::memory_order_relaxed));
  FillQuantiles(&s);
  return s;
}

LatencyHistogram::Snapshot LatencyHistogram::Merge(const Snapshot& a,
                                                   const Snapshot& b) {
  // Zero-sample sides contribute nothing; returning the other side verbatim
  // also preserves its exact min/max instead of mixing in zero sentinels.
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  Snapshot m;
  m.count = a.count + b.count;
  m.sum_ms = a.sum_ms + b.sum_ms;
  m.min_ms = std::min(a.min_ms, b.min_ms);
  m.max_ms = std::max(a.max_ms, b.max_ms);
  for (int i = 0; i < kNumBuckets; ++i) {
    m.buckets[static_cast<size_t>(i)] =
        a.buckets[static_cast<size_t>(i)] + b.buckets[static_cast<size_t>(i)];
  }
  FillQuantiles(&m);
  return m;
}

std::string ResilienceStats::ToString() const {
  return StrFormat(
      "attempts=%llu retries=%llu timeouts=%llu transient=%llu garbled=%llu "
      "slow=%llu budget_exhausted=%llu breaker(open=%llu half=%llu "
      "close=%llu short_circuit=%llu) fallbacks(baseline=%llu "
      "plan_diff=%llu) kb_insert_retries=%llu",
      static_cast<unsigned long long>(llm_attempts),
      static_cast<unsigned long long>(llm_retries),
      static_cast<unsigned long long>(llm_timeouts),
      static_cast<unsigned long long>(llm_transient_errors),
      static_cast<unsigned long long>(llm_garbled),
      static_cast<unsigned long long>(llm_slow),
      static_cast<unsigned long long>(budget_exhausted),
      static_cast<unsigned long long>(breaker_opens),
      static_cast<unsigned long long>(breaker_half_opens),
      static_cast<unsigned long long>(breaker_closes),
      static_cast<unsigned long long>(breaker_short_circuits),
      static_cast<unsigned long long>(fallbacks_baseline),
      static_cast<unsigned long long>(fallbacks_plan_diff),
      static_cast<unsigned long long>(kb_insert_retries));
}

std::string DurabilityStats::ToString() const {
  return StrFormat(
      "wal(appends=%llu fsyncs=%llu bytes=%llu rotations=%llu) "
      "snapshots(ok=%llu failed=%llu fallbacks=%llu) "
      "replay(records=%llu truncated=%llu corrupt=%llu) "
      "recoveries=%llu recovery=%.2fms gc_files=%llu",
      static_cast<unsigned long long>(wal_appends),
      static_cast<unsigned long long>(wal_fsyncs),
      static_cast<unsigned long long>(wal_bytes),
      static_cast<unsigned long long>(wal_rotations),
      static_cast<unsigned long long>(snapshots),
      static_cast<unsigned long long>(snapshot_failures),
      static_cast<unsigned long long>(snapshot_fallbacks),
      static_cast<unsigned long long>(replayed_records),
      static_cast<unsigned long long>(truncated_records),
      static_cast<unsigned long long>(corrupt_records),
      static_cast<unsigned long long>(recoveries), recovery_ms(),
      static_cast<unsigned long long>(gc_files));
}

std::string LifecycleStats::ToString() const {
  return StrFormat(
      "phase=%s v%llu crc=%08x samples=%llu drift=%llu "
      "retrain(ok=%llu fail=%llu) shadow(runs=%llu rejects=%llu stalls=%llu "
      "aborts=%llu) swaps=%llu swap_fail=%llu rollbacks=%llu "
      "kb(expired=%llu backfilled=%llu) acc(serving=%.3f baseline=%.3f "
      "candidate=%.3f)",
      phase.empty() ? "-" : phase.c_str(),
      static_cast<unsigned long long>(active_version),
      static_cast<unsigned>(active_crc),
      static_cast<unsigned long long>(feedback_samples),
      static_cast<unsigned long long>(drift_detections),
      static_cast<unsigned long long>(retrains),
      static_cast<unsigned long long>(retrain_failures),
      static_cast<unsigned long long>(shadow_runs),
      static_cast<unsigned long long>(shadow_rejects),
      static_cast<unsigned long long>(shadow_stalls),
      static_cast<unsigned long long>(shadow_aborts),
      static_cast<unsigned long long>(swaps),
      static_cast<unsigned long long>(swap_failures),
      static_cast<unsigned long long>(rollbacks),
      static_cast<unsigned long long>(kb_expired),
      static_cast<unsigned long long>(kb_backfilled), serving_accuracy,
      baseline_accuracy, candidate_accuracy);
}

LifecycleStats MergeLifecycleStats(const LifecycleStats& a,
                                   const LifecycleStats& b) {
  LifecycleStats m;
  MergeFields<LifecycleCounters>(a, b, &m);
  const LifecycleStats& newest =
      b.active_version > a.active_version ? b : a;
  m.active_version = newest.active_version;
  m.active_crc = newest.active_crc;
  m.serving_accuracy = newest.serving_accuracy;
  m.baseline_accuracy = newest.baseline_accuracy;
  m.candidate_accuracy = newest.candidate_accuracy;
  m.phase = a.phase == b.phase ? a.phase : std::string();
  return m;
}

ServiceStats MergeServiceStats(const ServiceStats& a, const ServiceStats& b) {
  ServiceStats m;
  MergeFields<ServiceStats::Counters>(a, b, &m);
  MergeFields<CacheCounters>(a, b, &m);
  MergeFields<ResilienceStats>(a.resilience, b.resilience, &m.resilience);
  m.durability_enabled = a.durability_enabled || b.durability_enabled;
  MergeFields<DurabilityStats>(a.durability, b.durability, &m.durability);
  m.lifecycle_enabled = a.lifecycle_enabled || b.lifecycle_enabled;
  if (a.lifecycle_enabled && b.lifecycle_enabled) {
    m.lifecycle = MergeLifecycleStats(a.lifecycle, b.lifecycle);
  } else {
    m.lifecycle = a.lifecycle_enabled ? a.lifecycle : b.lifecycle;
  }
  return m;
}

namespace {

std::string HistLine(const char* name,
                     const LatencyHistogram::Snapshot& h) {
  return StrFormat(
      "  %-12s n=%llu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms "
      "max=%.3fms",
      name, static_cast<unsigned long long>(h.count), h.mean_ms(), h.p50_ms,
      h.p95_ms, h.p99_ms, h.max_ms);
}

}  // namespace

std::string ServiceStats::ToString() const {
  std::string out = StrFormat(
      "requests=%llu completed=%llu errors=%llu cache_hits=%llu "
      "cache_misses=%llu hit_rate=%.1f%% kb_inserts=%llu\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), 100.0 * cache_hit_rate(),
      static_cast<unsigned long long>(kb_inserts));
  out += StrFormat(
      "degradation: full=%llu baseline=%llu plan_diff=%llu failed=%llu "
      "early_rejected=%llu\n",
      static_cast<unsigned long long>(degraded_full),
      static_cast<unsigned long long>(degraded_baseline),
      static_cast<unsigned long long>(degraded_plan_diff),
      static_cast<unsigned long long>(degraded_failed),
      static_cast<unsigned long long>(early_rejections));
  out += "resilience: " + resilience.ToString() + "\n";
  if (durability_enabled) {
    out += "durability: " + durability.ToString() + "\n";
  }
  if (lifecycle_enabled) {
    out += "lifecycle: " + lifecycle.ToString() + "\n";
  }
  out += HistLine("encode", encode) + "\n";
  out += HistLine("cache_lookup", cache_lookup) + "\n";
  out += HistLine("kb_search", kb_search) + "\n";
  out += HistLine("generate", generate) + "\n";
  out += HistLine("end_to_end", end_to_end);
  return out;
}

}  // namespace htapex
