#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  index = std::min(index, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return static_cast<double>(samples[index]);
}

bool Supported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double HighestSupported(size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (Supported(n, q)) return q;
  }
  return 0.0;
}

std::string PercentileName(double q) {
  char buf[16];
  double p = q * 100.0;
  if (std::fabs(p - std::round(p)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", p);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", p);
  }
  return buf;
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::printf("metric %-32s %14.6f %-6s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  ", note.c_str());
}

double PrintPercentile(const std::string& name,
                       std::vector<int64_t>& samples_ns, double q,
                       const std::string& unit) {
  double scale = unit == "ms" ? 1e-6 : unit == "us" ? 1e-3 : 1.0;
  size_t n = samples_ns.size();
  double value = Percentile(samples_ns, q) * scale;
  char note[96];
  if (Supported(n, q)) {
    std::snprintf(note, sizeof(note), "(n=%zu)", n);
    PrintMetric(name, value, unit, note);
  } else {
    double best = HighestSupported(n);
    if (best > 0.0) {
      std::snprintf(note, sizeof(note),
                    "(n=%zu: %s unsupported, highest supported %s = %.6f)", n,
                    PercentileName(q).c_str(), PercentileName(best).c_str(),
                    Percentile(samples_ns, best) * scale);
    } else {
      std::snprintf(note, sizeof(note), "(n=%zu: no percentile supported)", n);
    }
    PrintMetric(name, value, unit, note);
  }
  return value;
}

}  // namespace perfbench
