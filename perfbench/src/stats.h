// Latency summaries with honest percentiles.
//
// Samples are nanoseconds from the benchmark's own steady_clock. A
// percentile is reported only when at least ten samples lie beyond it;
// otherwise the summary names the highest percentile that does.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Nearest-rank percentile of `samples` (sorted in place), q in [0, 1].
/// 0 when empty.
double Percentile(std::vector<int64_t>& samples, double q);

/// True when at least ten of `n` samples lie beyond percentile q.
bool Supported(size_t n, double q);

/// The highest of p99.9, p99, p95, p90, p75, p50 that `n` samples
/// support, as a fraction (0 when none does).
double HighestSupported(size_t n);

/// "p99" / "p99.9" for a fraction q.
std::string PercentileName(double q);

/// Prints "metric <name> <value> <unit>" plus a trailing note.
void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

/// Prints the percentile `q` of `samples_ns` in `unit` ("ms" or "us") with
/// its sample count, or, when unsupported, the highest supported one.
/// Returns the requested percentile's value either way.
double PrintPercentile(const std::string& name,
                       std::vector<int64_t>& samples_ns, double q,
                       const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
