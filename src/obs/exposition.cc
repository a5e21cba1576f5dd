#include "obs/exposition.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace htapex {

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(), tail);
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Renders a finite double without trailing-zero noise.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string s = StrFormat("%.6f", v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

}  // namespace

void ExpositionBuilder::Header(const std::string& name,
                               const std::string& help, const char* type) {
  if (std::find(declared_.begin(), declared_.end(), name) != declared_.end()) {
    return;
  }
  declared_.push_back(name);
  out_ += "# HELP " + name + " " + help + "\n";
  out_ += "# TYPE " + name + " " + type + "\n";
}

void ExpositionBuilder::Sample(const std::string& name,
                               const ExpositionLabels& labels, double value) {
  out_ += name;
  if (!labels.empty()) {
    out_ += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
              "\"";
    }
    out_ += '}';
  }
  out_ += ' ' + FormatValue(value) + '\n';
}

void ExpositionBuilder::Counter(const std::string& name,
                                const std::string& help, uint64_t value,
                                const ExpositionLabels& labels) {
  Header(name, help, "counter");
  Sample(name, labels, static_cast<double>(value));
}

void ExpositionBuilder::Gauge(const std::string& name, const std::string& help,
                              double value, const ExpositionLabels& labels) {
  Header(name, help, "gauge");
  Sample(name, labels, value);
}

void ExpositionBuilder::Summary(const std::string& name,
                                const std::string& help,
                                const LatencyHistogram::Snapshot& snap,
                                const ExpositionLabels& labels) {
  Header(name, help, "summary");
  const std::pair<const char*, double> quantiles[] = {
      {"0.5", snap.p50_ms}, {"0.95", snap.p95_ms}, {"0.99", snap.p99_ms}};
  for (const auto& [q, v] : quantiles) {
    ExpositionLabels with_q = labels;
    with_q.emplace_back("quantile", q);
    Sample(name, with_q, v);
  }
  Sample(name + "_count", labels, static_cast<double>(snap.count));
  Sample(name + "_sum", labels, snap.sum_ms);
}

namespace {

ExpositionLabels LabelsOf(const MetricField& field) {
  if (field.label == nullptr) return {};
  return {{field.label, field.value}};
}

}  // namespace

void ExpositionBuilder::Add(const MetricField& field, uint64_t value) {
  if (field.family == nullptr) return;
  if (field.gauge) {
    Gauge(field.family, field.help, static_cast<double>(value),
          LabelsOf(field));
  } else {
    Counter(field.family, field.help, value, LabelsOf(field));
  }
}

void ExpositionBuilder::Add(const MetricField& field,
                            const LatencyHistogram::Snapshot& snap) {
  if (field.family == nullptr) return;
  Summary(field.family, field.help, snap, LabelsOf(field));
}

void ExpositionBuilder::Traces(const TraceMetrics::Stats& t) {
  Counter("htapex_traces_recorded_total", "Completed request traces",
          t.traces);
  Counter("htapex_slow_traces_total",
          "Traces above the slow-request threshold", t.slow_traces);
  Counter("htapex_unknown_spans_total",
          "Spans recorded outside the canonical taxonomy", t.unknown_spans);
  for (const TraceMetrics::SpanStat& span : t.spans) {
    Summary("htapex_span_latency_ms",
            "Per-span latency summaries from request traces", span.hist,
            {{"span", span.name}});
  }
}

namespace {

/// Family of a sample name: strips the summary/histogram suffixes so
/// `htapex_span_latency_ms_count` resolves to `htapex_span_latency_ms`.
std::string FamilyOf(const std::string& name,
                     const std::vector<std::string>& declared) {
  if (std::find(declared.begin(), declared.end(), name) != declared.end()) {
    return name;
  }
  for (const char* suffix : {"_count", "_sum", "_bucket"}) {
    std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      std::string base = name.substr(0, name.size() - s.size());
      if (std::find(declared.begin(), declared.end(), base) !=
          declared.end()) {
        return base;
      }
    }
  }
  return "";
}

}  // namespace

Result<std::vector<ExpositionSample>> ParseExposition(
    const std::string& text) {
  std::vector<ExpositionSample> samples;
  std::vector<std::string> declared;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& why) {
      return Status::InvalidArgument(
          StrFormat("exposition line %d: %s: %.80s", line_no, why.c_str(),
                    line.c_str()));
    };

    if (line[0] == '#') {
      // `# HELP name text` / `# TYPE name type`; any other comment is fine.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        std::string rest = line.substr(7);
        size_t sp = rest.find(' ');
        std::string name = rest.substr(0, sp);
        if (!ValidMetricName(name)) return fail("bad metric name in header");
        if (line.rfind("# TYPE ", 0) == 0) {
          if (sp == std::string::npos) return fail("TYPE without a type");
          std::string type = rest.substr(sp + 1);
          if (type != "counter" && type != "gauge" && type != "summary" &&
              type != "histogram" && type != "untyped") {
            return fail("unknown metric type '" + type + "'");
          }
          declared.push_back(name);
        }
      }
      continue;
    }

    ExpositionSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (!ValidMetricName(sample.name)) return fail("bad metric name");

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        size_t eq = line.find('=', i);
        if (eq == std::string::npos) return fail("label without '='");
        std::string key = line.substr(i, eq - i);
        if (!ValidMetricName(key)) return fail("bad label name");
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') {
          return fail("label value not quoted");
        }
        ++i;
        std::string value;
        bool closed = false;
        while (i < line.size()) {
          char c = line[i++];
          if (c == '\\') {
            if (i >= line.size()) return fail("dangling escape");
            char e = line[i++];
            if (e == 'n') {
              value += '\n';
            } else if (e == '\\' || e == '"') {
              value += e;
            } else {
              return fail("bad escape in label value");
            }
          } else if (c == '"') {
            closed = true;
            break;
          } else {
            value += c;
          }
        }
        if (!closed) return fail("unterminated label value");
        sample.labels.emplace_back(std::move(key), std::move(value));
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        return fail("unterminated label set");
      }
      ++i;
    }

    if (i >= line.size() || line[i] != ' ') {
      return fail("missing value separator");
    }
    std::string value_str = line.substr(i + 1);
    if (value_str.empty()) return fail("missing value");
    if (value_str == "NaN") {
      sample.value = std::nan("");
    } else if (value_str == "+Inf") {
      sample.value = HUGE_VAL;
    } else if (value_str == "-Inf") {
      sample.value = -HUGE_VAL;
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str() || *end != '\0') {
        return fail("value is not a number");
      }
    }

    if (FamilyOf(sample.name, declared).empty()) {
      return fail("sample for undeclared family (missing # TYPE)");
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace htapex
