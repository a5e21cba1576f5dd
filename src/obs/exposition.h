#ifndef HTAPEX_OBS_EXPOSITION_H_
#define HTAPEX_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace htapex {

/// Label set for one metric sample, e.g. {{"span","generate"}}.
using ExpositionLabels = std::vector<std::pair<std::string, std::string>>;

/// Prometheus-text-format builder. Emits `# HELP` / `# TYPE` headers once
/// per metric family (on first use), then one sample line per call:
///
///   # HELP htapex_requests_total Requests submitted to the service
///   # TYPE htapex_requests_total counter
///   htapex_requests_total 128
///   htapex_span_latency_ms{span="generate",quantile="0.99"} 15234.1
///
/// Latency histograms are rendered as summaries (quantile-labelled samples
/// plus `_count` / `_sum`), the fixed-memory analogue of what
/// LatencyHistogram::Snap reconstructs.
class ExpositionBuilder {
 public:
  void Counter(const std::string& name, const std::string& help,
               uint64_t value, const ExpositionLabels& labels = {});
  void Gauge(const std::string& name, const std::string& help, double value,
             const ExpositionLabels& labels = {});
  /// One summary family; call repeatedly with different labels to emit
  /// several series (the help/type header is emitted once).
  void Summary(const std::string& name, const std::string& help,
               const LatencyHistogram::Snapshot& snap,
               const ExpositionLabels& labels = {});
  /// Every exposed field of one metric group (see MetricField in
  /// obs/metrics.h): uint64_t fields as counters or gauges, histogram
  /// snapshots as summaries. Unexposed fields are skipped.
  template <typename Group, typename Stats>
  void Fields(const Stats& stats) {
    Group::Fields([this](const MetricField& f, const auto& v) { Add(f, v); },
                  stats);
  }
  /// The trace counters and the per-span latency summaries.
  void Traces(const TraceMetrics::Stats& traces);
  /// One field: a counter (or gauge) sample, or a summary. No-op for a
  /// field without a family.
  void Add(const MetricField& field, uint64_t value);
  void Add(const MetricField& field, const LatencyHistogram::Snapshot& snap);

  const std::string& Text() const { return out_; }

 private:
  void Header(const std::string& name, const std::string& help,
              const char* type);
  void Sample(const std::string& name, const ExpositionLabels& labels,
              double value);

  std::string out_;
  std::vector<std::string> declared_;  // families with emitted headers
};

/// One parsed sample line.
struct ExpositionSample {
  std::string name;
  ExpositionLabels labels;
  double value = 0.0;
};

/// Strict parser for the exposition format above — the CI drift check: the
/// renderer's output must round-trip through this, so a malformed quote,
/// bad metric name, or sample without a preceding `# TYPE` declaration
/// fails loudly instead of silently breaking scrapers.
///
/// Enforced: metric names match [a-zA-Z_:][a-zA-Z0-9_:]*; label syntax
/// `{k="v",...}` with \\, \" and \n escapes; values parse as finite
/// doubles ("NaN"/"+Inf"/"-Inf" accepted per the format); every sample's
/// family (modulo `_count`/`_sum`/`_bucket` suffixes) was declared by a
/// `# TYPE` line earlier in the text.
Result<std::vector<ExpositionSample>> ParseExposition(const std::string& text);

}  // namespace htapex

#endif  // HTAPEX_OBS_EXPOSITION_H_
