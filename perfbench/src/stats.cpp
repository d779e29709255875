#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pb {

namespace {
size_t rank_of(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}
}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  return sorted[rank_of(sorted.size(), p) - 1];
}

size_t samples_beyond(size_t n, double p) { return n - rank_of(n, p); }

Percentile tail_percentile(std::vector<double> values, size_t min_beyond) {
  Percentile out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.pct = 50;
  for (int p = 99; p >= 50; --p) {
    if (samples_beyond(values.size(), p) >= min_beyond) {
      out.pct = p;
      break;
    }
  }
  out.value = nearest_rank(values, out.pct);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return nearest_rank(values, 50);
}

double block_rate(const std::vector<std::pair<double, uint64_t>>& batches,
                  double t0_us, int blocks) {
  if (batches.empty() || blocks < 1) return 0.0;
  std::vector<std::pair<double, uint64_t>> b = batches;
  std::sort(b.begin(), b.end());
  const size_t per = (b.size() + blocks - 1) / static_cast<size_t>(blocks);
  std::vector<double> rates;
  double prev = t0_us;
  for (size_t i = 0; i < b.size(); i += per) {
    const size_t end = std::min(b.size(), i + per);
    uint64_t n = 0;
    for (size_t j = i; j < end; ++j) n += b[j].second;
    const double t = b[end - 1].first;
    if (t > prev) rates.push_back(static_cast<double>(n) * 1e6 / (t - prev));
    prev = t;
  }
  return median(rates);
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> poisson_schedule(uint64_t seed, double rate_per_s,
                                     double seconds) {
  std::vector<double> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  uint64_t state = seed ^ 0x5C4EDu;
  const double mean_gap_us = 1e6 / rate_per_s;
  const double end_us = seconds * 1e6;
  double t = 0;
  for (;;) {
    // 53 uniform bits in [0,1); -log(1-u) is finite for every draw.
    const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1p-53;
    t += -std::log1p(-u) * mean_gap_us;
    if (t >= end_us) break;
    due.push_back(t);
  }
  return due;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_ms_per_sample(double cpu_before_s, double cpu_after_s,
                         uint64_t samples) {
  if (samples == 0) return 0.0;
  return (cpu_after_s - cpu_before_s) * 1e3 / static_cast<double>(samples);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[40];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i) out += ", ";
    out += "\"" + json_escape(m.name) + "\": {\"value\": " + num +
           ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pb
