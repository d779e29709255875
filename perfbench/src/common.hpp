#pragma once

// Shared by the three workloads and the driver: options, the result a
// workload hands back, the metric names, and the correctness helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "stats.hpp"
#include "tensor/tensor.hpp"

namespace pb {

/// The paper's default MAC scenario (FP8 E5M2 multiply, FP12 E6M5
/// accumulate, eager stochastic rounding with r = 9 random bits).
inline constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its files
};

/// What a workload run hands back to the driver.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by name; the driver emits them in the declared order.
  std::map<std::string, double> values;
  /// Context lines printed above the result (percentile used, counts...).
  std::vector<std::string> notes;
};

/// A correctness check failed: print why and exit non-zero without a
/// result line, so a wrong answer is never read as a slow run.
[[noreturn]] void fail_check(const std::string& what);

/// Exits through fail_check unless `ok`.
inline void check(bool ok, const std::string& what) {
  if (!ok) fail_check(what);
}

/// Writes the traced run's spans to <out_dir>/trace-<workload>-<seed>.json
/// and notes where (fails the run if the file cannot be written).
void write_trace(const Options& opt, Outcome& out);

/// Bitwise equality of two tensors (shape and every byte of the data).
bool same_bits(const srmac::Tensor& a, const srmac::Tensor& b);

/// FNV-1a over the bits of every parameter value of `model`, mixed with
/// `extra` — the digest a training step is compared by.
uint64_t param_digest(srmac::Layer& model, uint64_t extra = 0);

/// Analytic MACs of one sample's forward pass through `model` from the
/// layer geometry (Conv2d, BasicBlock, Linear; other layers add none),
/// for a per-sample input of `input_shape`.
uint64_t forward_macs_per_sample(srmac::Sequential& model,
                                 const std::vector<int>& input_shape);

/// "avx512" when the fused kernel runs its 16-wide AVX-512 chain on this
/// host, "scalar" otherwise (read from the packed panel group width).
std::string kernel_path();

/// Per-sample GEMM shape key "<M>x<N>x<K>" of a forward dispatch covering
/// `batch` samples: conv GEMMs carry samples on N, Linear ones on M.
std::string per_sample_key(int M, int N, int K, int batch, bool linear);

// ---- metric names --------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, in emission order (the untraced run).
const std::vector<MetricDef>& end_to_end_metrics();

/// Per-layer metrics, in emission order (the traced run). A metric a
/// workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Forward GEMM shapes (per sample) that get mac.* rows: resnet20:16 and
/// mlp:64,3, the two served models.
const std::vector<std::string>& mac_shape_keys();

/// Sequential children that get nn.* rows (resnet20 has the most, 14).
inline constexpr int kNnChildren = 14;
std::string child_key(int i);

// ---- workloads -------------------------------------------------------------

Outcome run_train(const Options& opt);
Outcome run_serve(const Options& opt);
Outcome run_wire(const Options& opt);

}  // namespace pb
