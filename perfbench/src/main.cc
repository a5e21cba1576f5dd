// perfbench: runs one workload of the repository benchmark and prints, as
// its last line, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload explain_fresh --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 all ops correct, 1 some op failed, 2 bad usage or set-up.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explain_fresh|explain_feedback|execute_mix --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      if (!perfbench::ParseWorkload(value, &o.workload)) {
        return Usage("unknown workload");
      }
      have_workload = true;
    } else if (!ParseNumber(value, &number) || number < 0 ||
               (flag == "--seed" && number != std::floor(number))) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      if (number <= 0) return Usage("--seconds must be positive");
      o.seconds = number;
    } else if (flag == "--trace") {
      o.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  std::printf("host %s\n", perfbench::HostStamp(o.workload).c_str());
  std::fflush(stdout);
  perfbench::RunReport report;
  if (!perfbench::RunWorkload(o, &report)) return 2;

  std::fputs(report.notes.c_str(), stdout);
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    double v = std::isfinite(metric.value) ? metric.value : 0.0;
    if (!metrics.empty()) metrics += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  bool correct = report.ops.failed == 0 && report.ops.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.ops.attempted),
      static_cast<unsigned long long>(report.ops.failed), metrics.c_str());
  return correct ? 0 : 1;
}
