#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mac/gemm.hpp"
#include "mac/mac_config.hpp"
#include "nn/layers.hpp"
#include "nn/resnet.hpp"
#include "trace.hpp"

namespace pb {

void fail_check(const std::string& what) {
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(3);
}

void write_trace(const Options& opt, Outcome& out) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  check(Tracer::get().write_chrome(path), "cannot write " + path);
  out.notes.push_back("trace: " + path + " (" +
                      std::to_string(Tracer::get().size()) + " spans, " +
                      std::to_string(Tracer::get().dropped()) + " dropped)");
}

bool same_bits(const srmac::Tensor& a, const srmac::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

uint64_t param_digest(srmac::Layer& model, uint64_t extra) {
  std::vector<srmac::Param*> params;
  model.collect_params(params);
  uint64_t h = 1469598103934665603ull ^ extra;
  for (const srmac::Param* p : params) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->value.data());
    const size_t n = static_cast<size_t>(p->value.numel()) * sizeof(float);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

namespace {
int conv_out(int in, const srmac::Conv2d& c) {
  return (in + 2 * c.padding() - c.kernel()) / c.stride() + 1;
}
uint64_t conv_macs(const srmac::Conv2d& c, int H, int W) {
  return static_cast<uint64_t>(c.out_channels()) * conv_out(H, c) *
         conv_out(W, c) * c.in_channels() * c.kernel() * c.kernel();
}
}  // namespace

uint64_t forward_macs_per_sample(srmac::Sequential& model,
                                 const std::vector<int>& input_shape) {
  int H = input_shape.size() == 3 ? input_shape[1] : 1;
  int W = input_shape.size() == 3 ? input_shape[2] : 1;
  uint64_t macs = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    srmac::Layer& l = model.child(i);
    if (auto* c = dynamic_cast<srmac::Conv2d*>(&l)) {
      macs += conv_macs(*c, H, W);
      H = conv_out(H, *c);
      W = conv_out(W, *c);
    } else if (auto* b = dynamic_cast<srmac::BasicBlock*>(&l)) {
      macs += conv_macs(b->conv1(), H, W);
      if (b->proj()) macs += conv_macs(*b->proj(), H, W);
      const int oh = conv_out(H, b->conv1()), ow = conv_out(W, b->conv1());
      macs += conv_macs(b->conv2(), oh, ow);
      H = oh;
      W = ow;
    } else if (auto* f = dynamic_cast<srmac::Linear*>(&l)) {
      macs += static_cast<uint64_t>(f->in_features()) * f->out_features();
    } else if (dynamic_cast<srmac::GlobalAvgPool*>(&l)) {
      H = W = 1;
    }
  }
  return macs;
}

std::string kernel_path() {
  const srmac::MacConfig cfg = srmac::MacConfig::parse(kScenario)->normalized();
  const std::vector<uint32_t> b(16 * 16, 0);
  const srmac::PackedBPanels p = srmac::gemm_pack_b(cfg, 16, 16, b.data(), 16);
  return p.group >= 16 ? "avx512" : "scalar";
}

std::string per_sample_key(int M, int N, int K, int batch, bool linear) {
  if (batch < 1) batch = 1;
  if (linear) M /= batch;
  else N /= batch;
  return std::to_string(M) + "x" + std::to_string(N) + "x" + std::to_string(K);
}

const std::vector<std::string>& mac_shape_keys() {
  // resnet20:16 (width 0.25: 4/8/16 channels on 16x16/8x8/4x4 maps) and
  // mlp:64,3, forward, one sample.
  static const std::vector<std::string> keys = {
      "4x256x27",  "4x256x36", "8x64x36",  "8x64x4",  "8x64x72",  "16x16x72",
      "16x16x8",   "16x16x144", "1x10x16", "1x64x64", "1x10x64"};
  return keys;
}

std::string child_key(int i) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "c%02d", i);
  return buf;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"samples_per_s", "1/s"},    {"mmac_per_s", "MMAC/s"},
      {"latency_p50_us", "us"},    {"latency_tail_us", "us"},
      {"cpu_ms_per_sample", "ms"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"}};
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const std::string& k : mac_shape_keys()) {
      d.push_back({"mac." + k + ".kernel_us", "us"});
      d.push_back({"mac." + k + ".pack_b_us", "us"});
      d.push_back({"mac." + k + ".quantize_us", "us"});
      d.push_back({"mac." + k + ".mmac_per_s", "MMAC/s"});
      d.push_back({"mac." + k + ".vs_isolated", "ratio"});
    }
    d.push_back({"engine.gemms_per_sample", "count"});
    d.push_back({"engine.macs_per_sample", "count"});
    d.push_back({"engine.bytes_quantized_per_sample", "bytes"});
    d.push_back({"engine.problems_per_batch", "count"});
    d.push_back({"engine.busy_frac", "ratio"});
    for (int i = 0; i < kNnChildren; ++i) {
      d.push_back({"nn.fwd_us." + child_key(i), "us"});
      d.push_back({"nn.bwd_us." + child_key(i), "us"});
      d.push_back({"nn.self_us." + child_key(i), "us"});
    }
    d.push_back({"compile.planes_packed", "count"});
    d.push_back({"compile.activation_bytes_per_sample", "bytes"});
    d.push_back({"compile.fwd_us", "us"});
    for (const char* n : {"data", "fwd", "loss", "bwd", "opt"})
      d.push_back({std::string("train.") + n + "_us", "us"});
    d.push_back({"train.skipped_steps", "ratio"});
    d.push_back({"serve.submit_us", "us"});
    d.push_back({"serve.queue_us", "us"});
    d.push_back({"serve.exec_us", "us"});
    d.push_back({"serve.batch_mean", "count"});
    d.push_back({"serve.grouped_width", "count"});
    d.push_back({"serve.deadline_misses", "count"});
    d.push_back({"serve.sheds", "count"});
    d.push_back({"net.send_us", "us"});
    d.push_back({"net.overhead_us", "us"});
    d.push_back({"net.requests", "count"});
    d.push_back({"net.protocol_errors", "count"});
    d.push_back({"gen.lag_p50_us", "us"});
    d.push_back({"gen.lag_tail_us", "us"});
    d.push_back({"gen.offered_per_s", "1/s"});
    d.push_back({"trace.overhead_frac", "ratio"});
    return d;
  }();
  return defs;
}

}  // namespace pb
