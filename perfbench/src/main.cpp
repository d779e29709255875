// perfbench: the repository benchmark driver. Runs one workload by name and
// seed, prints every metric with its unit, and ends with one JSON result
// line. See ../README.md for the workloads, metrics and trace output.
//
//   perfbench --workload <train-resnet20|serve-resnet20|serve-mlp-wire>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-resnet20|serve-resnet20|serve-mlp-wire> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || !end || *end || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, &n)) usage("--seed wants a non-negative integer");
      opt.seed = n;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &n) || n < 1 || n > 600)
        usage("--seconds wants an integer in 1..600");
      opt.seconds = static_cast<double>(n);
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1"))
        usage("--trace wants 0 or 1");
      opt.trace = v[0] == '1';
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  const unsigned hw = std::thread::hardware_concurrency();
  const std::string path = pb::kernel_path();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "hardware_parallelism=%u kernel=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, hw, path.c_str());
  if (hw < 4)
    std::printf("note: the workloads' thread budget assumes 4 hardware "
                "threads; this host has %u\n", hw);

  pb::Outcome out;
  try {
    if (opt.workload == "train-resnet20") out = pb::run_train(opt);
    else if (opt.workload == "serve-resnet20") out = pb::run_serve(opt);
    else if (opt.workload == "serve-mlp-wire") out = pb::run_wire(opt);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 4;
  }

  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::vector<pb::Metric> metrics;
  const auto& defs =
      opt.trace ? pb::per_layer_metrics() : pb::end_to_end_metrics();
  for (const pb::MetricDef& d : defs) {
    auto it = out.values.find(d.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    if (!opt.trace && !(std::isfinite(v) && v > 0)) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s is %g\n",
                   d.name.c_str(), v);
      return 5;
    }
    std::printf("  %-40s %16.4f %s\n", d.name.c_str(), v, d.unit.c_str());
    metrics.push_back({d.name, v, d.unit});
  }
  for (const auto& kv : out.values) {
    bool known = false;
    for (const pb::MetricDef& d : defs) known = known || d.name == kv.first;
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                   kv.first.c_str());
      return 5;
    }
  }
  std::printf("%s\n", pb::result_json(true, out.attempted, out.failed, metrics)
                          .c_str());
  return 0;
}
