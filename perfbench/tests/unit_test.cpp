// Unit tests for the benchmark's own logic: the tail-percentile rule, the
// block rate, the Poisson schedule, CPU-per-sample accounting, the result
// emitter, and the agreement between the declared metric names and
// BENCHMARK.json.
//
//   perfbench_unit [path/to/BENCHMARK.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_nearest_rank() {
  const std::vector<double> v = iota(100);
  EXPECT(pb::nearest_rank(v, 50) == 50);
  EXPECT(pb::nearest_rank(v, 99) == 99);
  EXPECT(pb::nearest_rank(v, 100) == 100);
  EXPECT(pb::nearest_rank(v, 0.5) == 1);
  EXPECT(pb::nearest_rank({7.0}, 50) == 7);
  EXPECT(pb::samples_beyond(1000, 99) == 10);
  EXPECT(pb::samples_beyond(999, 99) == 9);  // rank ceil(989.01) = 990
  EXPECT(pb::median({3, 1, 2}) == 2);
  EXPECT(pb::median({}) == 0);
}

void test_tail_rule() {
  // p99 needs 1000 samples: 10 beyond rank 990.
  pb::Percentile p = pb::tail_percentile(iota(1000));
  EXPECT(p.pct == 99 && p.value == 990 && p.n == 1000);
  // 999 samples: p99 leaves 9 beyond, so p98 (rank 980, 19 beyond).
  p = pb::tail_percentile(iota(999));
  EXPECT(p.pct == 98 && p.value == 980);
  // 30 samples (a train window): the highest percentile with 10 beyond is
  // p66 (rank 20).
  p = pb::tail_percentile(iota(30));
  EXPECT(p.pct == 66 && p.value == 20);
  // 20 samples: only the median qualifies; 19: nothing does, median anyway.
  EXPECT(pb::tail_percentile(iota(20)).pct == 50);
  p = pb::tail_percentile(iota(19));
  EXPECT(p.pct == 50 && p.value == 10 && p.n == 19);
  // Order does not matter.
  std::vector<double> rev = iota(1000);
  std::reverse(rev.begin(), rev.end());
  EXPECT(pb::tail_percentile(rev).value == 990);
  EXPECT(pb::tail_percentile({}).n == 0);
}

void test_block_rate() {
  // 20 batches of 16, one every 100 ms: 160 requests/s in every group.
  std::vector<std::pair<double, uint64_t>> batches;
  for (int i = 1; i <= 20; ++i) batches.push_back({i * 100000.0, 16});
  EXPECT(std::fabs(pb::block_rate(batches, 0, 10) - 160) < 1e-9);
  // A slow stretch in two of ten groups leaves the median rate alone.
  batches[3].first += 400000;
  for (size_t i = 4; i < batches.size(); ++i) batches[i].first += 400000;
  EXPECT(std::fabs(pb::block_rate(batches, 0, 10) - 160) < 1e-9);
  EXPECT(pb::block_rate({}, 0, 10) == 0);
}

void test_poisson() {
  const auto a = pb::poisson_schedule(7, 1500, 10);
  const auto b = pb::poisson_schedule(7, 1500, 10);
  const auto c = pb::poisson_schedule(8, 1500, 10);
  EXPECT(a == b);
  EXPECT(a != c);
  // About rate * seconds arrivals (15000 +- 5 sigma = ~610).
  EXPECT(std::fabs(static_cast<double>(a.size()) - 15000) < 610);
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i && a[i] < a[i - 1]) sorted = false;
    if (a[i] < 0 || a[i] >= 10e6) in_range = false;
  }
  EXPECT(sorted && in_range);
  // Mean gap matches the rate within 3%.
  const double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT(std::fabs(mean_gap - 1e6 / 1500) < 0.03 * 1e6 / 1500);
  EXPECT(pb::poisson_schedule(1, 0, 10).empty());
}

void test_cpu_accounting() {
  EXPECT(pb::cpu_ms_per_sample(1.0, 3.0, 1000) == 2.0);
  EXPECT(pb::cpu_ms_per_sample(1.0, 3.0, 0) == 0.0);
  // The process clock moves forward under work.
  const double t0 = pb::process_cpu_s();
  volatile double x = 0;
  for (int i = 0; i < 20000000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT(pb::process_cpu_s() > t0);
  EXPECT(pb::peak_rss_mb() > 0);
}

void test_emitter() {
  const std::string s = pb::result_json(
      true, 12, 1, {{"a_b", 1.25, "ms"}, {"q\"x", 0.1, "1/s"},
                    {"nan", std::nan(""), "s"}});
  EXPECT(s ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
         "{\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"q\\\"x\": "
         "{\"value\": 0.10000000000000001, \"unit\": \"1/s\"}, \"nan\": "
         "{\"value\": 0, \"unit\": \"s\"}}}");
  EXPECT(pb::result_json(false, 1, 0, {}) ==
         "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}");
}

void test_metric_names(const char* benchmark_json) {
  EXPECT(pb::per_layer_metrics().size() <= 128);
  EXPECT(pb::per_sample_key(16, 4096, 36, 16, false) == "16x256x36");
  EXPECT(pb::per_sample_key(16, 10, 64, 16, true) == "1x10x64");
  if (!benchmark_json) return;
  std::ifstream f(benchmark_json);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT(!text.empty());
  for (const auto* list : {&pb::end_to_end_metrics(), &pb::per_layer_metrics()})
    for (const pb::MetricDef& m : *list) {
      const std::string entry = "\"name\": \"" + m.name + "\", \"unit\": \"" +
                                m.unit + "\"";
      if (text.find(entry) == std::string::npos) {
        std::fprintf(stderr, "BENCHMARK.json lacks %s\n", entry.c_str());
        ++g_failures;
      }
    }
}

}  // namespace

int main(int argc, char** argv) {
  test_nearest_rank();
  test_tail_rule();
  test_block_rate();
  test_poisson();
  test_cpu_accounting();
  test_emitter();
  test_metric_names(argc > 1 ? argv[1] : nullptr);
  if (g_failures) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_unit: all passed\n");
  return 0;
}
