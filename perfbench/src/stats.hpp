#pragma once

// Statistics, accounting and output helpers shared by every workload.
// Pure functions (no library calls) so the unit tests can pin them down.

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// A latency percentile as the benchmark reports it: the value, which
/// percentile it is, and how many samples it was taken over.
struct Percentile {
  double value = 0.0;
  double pct = 0.0;
  size_t n = 0;
};

/// Nearest-rank percentile of `sorted` (ascending, non-empty), p in (0,100]:
/// the element at 1-based rank ceil(p/100 * n).
double nearest_rank(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile: n - rank.
size_t samples_beyond(size_t n, double p);

/// The tail percentile: the highest integer percentile in [50, 99] whose
/// nearest rank leaves at least `min_beyond` samples beyond it (p99 needs
/// 1000 samples at the default 10). With fewer than 2*min_beyond samples no
/// percentile qualifies and the median is returned (pct = 50). Sorts a copy.
Percentile tail_percentile(std::vector<double> values, size_t min_beyond = 10);

/// Median by nearest rank (p50); 0 for an empty series. Sorts a copy.
double median(std::vector<double> values);

/// Completion rate per second as the median over `blocks` groups of equal
/// count of server batch completions (completion time in us, requests):
/// each group's requests over the time since the previous group ended (the
/// first group counts from `t0_us`). Grouping whole batches keeps the rate
/// free of batch quantization.
double block_rate(const std::vector<std::pair<double, uint64_t>>& batches,
                  double t0_us, int blocks);

/// Open-loop arrival schedule: Poisson arrivals at `rate_per_s` over
/// [0, seconds), as offsets in microseconds from the start. A pure function
/// of (seed, rate, seconds): it draws exponential gaps from a splitmix64
/// stream through -log(1-u) so every platform gets the same schedule.
std::vector<double> poisson_schedule(uint64_t seed, double rate_per_s,
                                     double seconds);

/// splitmix64 step: the benchmark's own seeded stream (inputs, pools).
uint64_t splitmix64(uint64_t& state);

/// Process CPU time (user + system, from getrusage) in seconds.
double process_cpu_s();

/// Peak resident set size of the process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// CPU milliseconds spent per completed sample between two process_cpu_s()
/// readings; 0 when nothing completed.
double cpu_ms_per_sample(double cpu_before_s, double cpu_after_s,
                         uint64_t samples);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{
/// name:{"value":v,"unit":u},..}} with every value printed with all its
/// digits (%.17g). Non-finite values print as 0.
std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

/// JSON string escaping for names and units.
std::string json_escape(const std::string& s);

}  // namespace pb
