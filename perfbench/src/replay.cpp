#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "compile/model_compiler.hpp"
#include "mac/gemm.hpp"
#include "mac/mac_config.hpp"
#include "nn/layers.hpp"
#include "trace.hpp"

namespace pb {

namespace {

constexpr int kMacReps = 5;

/// Per-forward-pass sums of one per-sample shape key.
struct MacRow {
  double kernel_us = 0, pack_us = 0, quant_us = 0, iso_us = 0;
  double insitu_us = 0, macs = 0;
};
using MacTable = std::map<std::string, MacRow>;

template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    f();
    t.push_back(w.us());
  }
  return median(t);
}

/// Replays every executed forward shape of `events` (recorded over
/// `passes` forward passes) and returns per-pass sums keyed per sample.
MacTable mac_table(const std::vector<GemmEvent>& events, double passes,
                   int threads, std::vector<std::string>& notes) {
  struct Exec {
    uint64_t calls = 0;
    double us = 0;
  };
  using Shape = std::tuple<int, int, int, int, int, int, bool, bool>;
  std::map<Shape, Exec> groups;
  std::map<std::tuple<int, int, int>, Exec> backward;
  for (const GemmEvent& e : events) {
    Exec& g = e.label.pass != 0
                  ? backward[{e.M, e.N, e.K}]
                  : groups[{e.M, e.N, e.K, e.row_period, e.col_period,
                            e.label.batch, e.label.linear, e.bits}];
    ++g.calls;
    g.us += e.us;
  }
  // Backward shapes are reported in situ only (no mac.* row).
  for (const auto& [shape, g] : backward) {
    const auto [M, N, K] = shape;
    char line[160];
    std::snprintf(line, sizeof line,
                  "mac %dx%dx%d (backward): %.1f calls/pass, in-situ %.1f "
                  "MMAC/s",
                  M, N, K, g.calls / passes,
                  static_cast<double>(M) * N * K * g.calls / g.us);
    notes.push_back(line);
  }
  const srmac::MacConfig cfg =
      srmac::MacConfig::parse(kScenario)->normalized();
  MacTable table;
  for (const auto& [shape, g] : groups) {
    const auto [M, N, K, rp, cp, batch, linear, bits] = shape;
    // Replay on the captured operands of this shape (map entries are
    // never erased, so the pointer stays valid).
    const Operands* ops = captured(M, N, K, rp, cp, bits);
    check(ops != nullptr, "replay: no operands captured for a GEMM shape");
    std::vector<float> A = ops->A, B = ops->B, C(static_cast<size_t>(M) * N);
    std::vector<uint32_t> Aq = ops->Aq, Bq = ops->Bq;
    if (bits) {
      A.resize(Aq.size());
      B.resize(Bq.size());
      srmac::gemm_dequantize(cfg.mul_fmt, M, K, Aq.data(), K, A.data());
      srmac::gemm_dequantize(cfg.mul_fmt, K, N, Bq.data(), N, B.data());
    } else {
      Aq.resize(A.size());
      Bq.resize(B.size());
      srmac::gemm_quantize(cfg.mul_fmt, M, K, A.data(), K, Aq.data(), threads);
      srmac::gemm_quantize(cfg.mul_fmt, K, N, B.data(), N, Bq.data(), threads);
    }
    // The activation operand is quantized per call (conv: the im2col panel
    // B; Linear: the input rows A); the weight plane is cached.
    const double quant = median_us(kMacReps, [&] {
      if (linear)
        srmac::gemm_quantize(cfg.mul_fmt, M, K, A.data(), K, Aq.data(), threads);
      else
        srmac::gemm_quantize(cfg.mul_fmt, K, N, B.data(), N, Bq.data(), threads);
    });
    srmac::PackedBPanels panels;
    const double pack = median_us(kMacReps, [&] {
      panels = srmac::gemm_pack_b(cfg, K, N, Bq.data(), N, threads);
    });
    const double kernel = median_us(kMacReps, [&] {
      srmac::gemm_mac_bits_packed(cfg, M, N, K, Aq.data(), K, panels, C.data(),
                                  N, false, srmac::kDefaultSeed, threads, rp,
                                  cp);
    });
    // The isolated call is the entry point the layer's dispatch reached:
    // gemm_mac_bits for pre-quantized operands, gemm_mac for floats.
    const double iso = median_us(kMacReps, [&] {
      if (bits)
        srmac::gemm_mac_bits(cfg, M, N, K, Aq.data(), K, Bq.data(), N,
                             C.data(), N, false, srmac::kDefaultSeed, threads,
                             rp, cp);
      else
        srmac::gemm_mac(cfg, M, N, K, A.data(), K, B.data(), N, C.data(), N,
                        false, srmac::kDefaultSeed, threads, rp, cp);
    });
    const double calls = static_cast<double>(g.calls) / passes;
    const double macs = static_cast<double>(M) * N * K;
    MacRow& row = table[per_sample_key(M, N, K, batch, linear)];
    row.kernel_us += calls * kernel;
    row.pack_us += calls * pack;
    row.quant_us += calls * quant;
    row.iso_us += calls * iso;
    row.insitu_us += g.us / passes;
    row.macs += calls * macs;
    char line[200];
    std::snprintf(line, sizeof line,
                  "mac %dx%dx%d (batch %d): %.1f calls/pass, in-situ %.1f "
                  "MMAC/s, isolated %.1f MMAC/s",
                  M, N, K, batch, calls, macs * g.calls / g.us, macs / iso);
    notes.push_back(line);
  }
  return table;
}

/// Emits mac.* rows from per-batch-size tables weighted by how many
/// batches of each size ran: per-sample times are sum(w*t)/sum(w*batch).
void emit_mac(const std::vector<std::tuple<MacTable, double, int>>& parts,
              Outcome& out) {
  std::map<std::string, MacRow> acc;
  double samples = 0;
  for (const auto& [table, weight, batch] : parts) {
    samples += weight * batch;
    for (const auto& [key, r] : table) {
      MacRow& a = acc[key];
      a.kernel_us += weight * r.kernel_us;
      a.pack_us += weight * r.pack_us;
      a.quant_us += weight * r.quant_us;
      a.iso_us += weight * r.iso_us;
      a.insitu_us += weight * r.insitu_us;
      a.macs += weight * r.macs;
    }
  }
  for (const auto& [key, a] : acc) {
    const auto& keys = mac_shape_keys();
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) continue;
    out.values["mac." + key + ".kernel_us"] = a.kernel_us / samples;
    out.values["mac." + key + ".pack_b_us"] = a.pack_us / samples;
    out.values["mac." + key + ".quantize_us"] = a.quant_us / samples;
    out.values["mac." + key + ".mmac_per_s"] = a.macs / a.insitu_us;
    out.values["mac." + key + ".vs_isolated"] = a.iso_us / a.insitu_us;
  }
}

}  // namespace

void mac_rows(const std::vector<GemmEvent>& events, uint64_t samples,
              int threads, Outcome& out) {
  int batch = 1;
  for (const GemmEvent& e : events) batch = std::max(batch, e.label.batch);
  const double passes = static_cast<double>(samples) / batch;
  emit_mac({{mac_table(events, passes, threads, out.notes), passes, batch}},
           out);
}

void serve_replay(const srmac::ModelSpec& spec, uint64_t init_seed,
                  const srmac::EmuEngine& engine, const BatchMix& mix,
                  const std::vector<srmac::Tensor>& inputs,
                  const std::vector<srmac::Tensor>& refs, Outcome& out) {
  // The batch sizes that carried most samples (at most three).
  std::vector<std::pair<double, int>> by_samples;
  double total = 0;
  for (const auto& [b, n] : mix.batches) {
    by_samples.push_back({static_cast<double>(n) * b, b});
    total += static_cast<double>(n) * b;
  }
  std::sort(by_samples.rbegin(), by_samples.rend());
  std::vector<int> sizes;
  double covered = 0;
  for (const auto& [s, b] : by_samples) {
    if (sizes.size() == 3 || covered >= 0.9 * total) break;
    sizes.push_back(b);
    covered += s;
  }
  out.notes.push_back("replay: batch sizes covering " +
                      std::to_string(100.0 * covered / total) +
                      "% of served samples");

  auto model = spec.build(init_seed);
  const size_t children = model->size();
  srmac::ComputeContext ctx = engine.context();
  ctx.grouped = true;  // ServeConfig's default executor
  std::vector<double> fwd(children, 0), self(children, 0);
  std::vector<std::tuple<MacTable, double, int>> mac_parts;
  double weight_samples = 0;
  size_t next = 0;
  auto batch_of = [&](int b, std::vector<size_t>& idx) {
    std::vector<srmac::Tensor> xs;
    idx.clear();
    for (int j = 0; j < b; ++j, ++next) {
      idx.push_back(next % inputs.size());
      xs.push_back(inputs[idx.back()]);
    }
    return xs;
  };
  for (int b : sizes) {
    // Enough repetitions for a steady median, bounded in time.
    const int reps = std::clamp(static_cast<int>(2000 / (b * 10)), 5, 100);
    std::vector<std::vector<double>> t(children), g(children);
    take_events();
    set_recording(true);
    for (int r = 0; r < reps; ++r) {
      std::vector<size_t> idx;
      std::vector<srmac::Tensor> xs = batch_of(b, idx);
      Span batch_span("replay.batch" + std::to_string(b), next);
      for (size_t i = 0; i < children; ++i) {
        srmac::Layer& l = model->child(i);
        set_label({static_cast<int>(i), 0, b,
                   dynamic_cast<srmac::Linear*>(&l) != nullptr});
        Span s("replay." + child_key(static_cast<int>(i)) + "." + l.name(),
               next);
        const double g0 = thread_gemm_us();
        Stopwatch w;
        l.forward_batch(ctx.fork(i + 1).for_layer(l.name()), xs);
        t[i].push_back(w.us());
        g[i].push_back(thread_gemm_us() - g0);
      }
      set_label({});
      for (int j = 0; j < b; ++j)
        check(same_bits(xs[j], refs[idx[j]]),
              "replay: layer-by-layer output differs from offline forward");
    }
    set_recording(false);
    double sum = 0;
    const double w = static_cast<double>(mix.batches.at(b));
    for (size_t i = 0; i < children; ++i) {
      const double ti = median(t[i]);
      sum += ti;
      fwd[i] += w * ti;
      self[i] += w * (ti - median(g[i]));
    }
    weight_samples += w * b;
    const double exec = mix.exec_us_mean.at(b);
    out.notes.push_back("ledger: batch " + std::to_string(b) +
                        ": children sum " + std::to_string(sum) +
                        " us vs served exec " + std::to_string(exec) +
                        " us (bound: within " +
                        std::to_string(static_cast<int>(kLedgerBound * 100)) +
                        "%)");
    check(std::fabs(sum - exec) <= kLedgerBound * exec,
          "serve ledger: per-child replay times do not sum to exec_us");
    mac_parts.emplace_back(mac_table(take_events(), reps, engine.threads(),
                                     out.notes),
                           w, b);
  }
  for (size_t i = 0; i < children && i < kNnChildren; ++i) {
    const std::string k = child_key(static_cast<int>(i));
    out.values["nn.fwd_us." + k] = fwd[i] / weight_samples;
    out.values["nn.self_us." + k] = self[i] / weight_samples;
    out.notes.push_back("child " + k + " = " + model->child(i).name());
  }
  emit_mac(mac_parts, out);

  // Compiled executor replay at the same sizes.
  auto cmodel = spec.build(init_seed);
  const uint64_t planes0 = engine.telemetry().snapshot().compile_planes_packed;
  srmac::ModelCompiler::Options copts;
  copts.input_shape = spec.input_shape();
  copts.max_batch = 16;
  copts.grouped = true;
  auto compiled = srmac::ModelCompiler(engine).compile(*cmodel, copts);
  const srmac::TelemetrySnapshot c0 = engine.telemetry().snapshot();
  double cfwd = 0, csamples = 0;
  for (int b : sizes) {
    std::vector<double> t;
    const int reps = std::clamp(static_cast<int>(2000 / (b * 10)), 5, 100);
    for (int r = 0; r < reps; ++r) {
      std::vector<size_t> idx;
      std::vector<srmac::Tensor> xs = batch_of(b, idx);
      Span s("replay.compiled.batch" + std::to_string(b), next);
      Stopwatch w;
      compiled->forward_batch(xs);
      t.push_back(w.us());
      csamples += b;
      for (int j = 0; j < b; ++j)
        check(same_bits(xs[j], refs[idx[j]]),
              "replay: compiled output differs from offline forward");
    }
    const double w = static_cast<double>(mix.batches.at(b));
    cfwd += w * median(t);
  }
  const srmac::TelemetrySnapshot c1 = engine.telemetry().snapshot();
  out.values["compile.planes_packed"] =
      static_cast<double>(c0.compile_planes_packed - planes0);
  out.values["compile.activation_bytes_per_sample"] =
      (c1.compile_activation_bytes - c0.compile_activation_bytes) / csamples;
  out.values["compile.fwd_us"] = cfwd / weight_samples;
}

}  // namespace pb

namespace pb {

Pool make_pool(const srmac::ModelSpec& spec, uint64_t init_seed, uint64_t seed,
               int threads, size_t n) {
  Pool p;
  auto model = spec.build(init_seed);
  const srmac::EmuEngine engine = srmac::EmuEngine::Builder()
                                      .scenario(kScenario)
                                      .backend("fused")
                                      .threads(threads)
                                      .build();
  uint64_t state = seed ^ 0x9001;
  for (size_t i = 0; i < n; ++i) {
    const int id = static_cast<int>(splitmix64(state) % 1000000);
    p.inputs.push_back(spec.sample(id));
    p.refs.push_back(model->forward(engine.context(), p.inputs.back(),
                                    /*training=*/false));
  }
  return p;
}

void check_replies(
    const std::vector<std::pair<size_t, srmac::Tensor>>& replies,
    const Pool& pool, const srmac::TelemetrySnapshot& before,
    const srmac::TelemetrySnapshot& after, uint64_t macs_per_sample) {
  for (const auto& [idx, out] : replies)
    check(same_bits(out, pool.refs[idx]),
          "a served reply differs from the offline model.forward");
  const uint64_t got = after.macs - before.macs;
  const uint64_t want = macs_per_sample * replies.size();
  check(got == want, "telemetry counted " + std::to_string(got) +
                         " MACs, the layer shapes give " +
                         std::to_string(want));
  check(after.serve_requests - before.serve_requests == replies.size(),
        "the server's request count differs from the replies");
}

void engine_rows(const srmac::TelemetrySnapshot& b,
                 const srmac::TelemetrySnapshot& a, double samples,
                 double wall_s, Outcome& out) {
  double busy = 0;
  for (const auto& [name, row] : a.per_backend) {
    auto it = b.per_backend.find(name);
    busy += row.seconds - (it == b.per_backend.end() ? 0 : it->second.seconds);
  }
  out.values["engine.gemms_per_sample"] = (a.gemms - b.gemms) / samples;
  out.values["engine.macs_per_sample"] = (a.macs - b.macs) / samples;
  out.values["engine.bytes_quantized_per_sample"] =
      (a.bytes_quantized - b.bytes_quantized) / samples;
  out.values["engine.problems_per_batch"] =
      a.batches > b.batches ? double(a.batch_problems - b.batch_problems) /
                                  double(a.batches - b.batches)
                            : 0.0;
  out.values["engine.busy_frac"] = busy / wall_s;
}

BatchMix batch_mix(const std::vector<BatchLog::Event>& events,
                   std::vector<double>* exec_us) {
  BatchMix m;
  for (const BatchLog::Event& e : events) {
    ++m.batches[e.completed];
    m.exec_us_mean[e.completed] += static_cast<double>(e.exec_us);
    exec_us->push_back(static_cast<double>(e.exec_us));
  }
  for (auto& [b, sum] : m.exec_us_mean) sum /= static_cast<double>(m.batches[b]);
  return m;
}

void serve_rows(const srmac::TelemetrySnapshot& b,
                const srmac::TelemetrySnapshot& a,
                const std::vector<double>& submit_us,
                const std::vector<double>& queue_us,
                const std::vector<double>& exec_us, Outcome& out) {
  out.values["serve.submit_us"] = median(submit_us);
  out.values["serve.queue_us"] = median(queue_us);
  out.values["serve.exec_us"] = median(exec_us);
  out.values["serve.batch_mean"] =
      double(a.serve_requests - b.serve_requests) /
      double(a.serve_batches - b.serve_batches);
  out.values["serve.grouped_width"] =
      a.gemms_grouped > b.gemms_grouped
          ? double(a.grouped_samples - b.grouped_samples) /
                double(a.gemms_grouped - b.gemms_grouped)
          : 0.0;
  out.values["serve.deadline_misses"] =
      double(a.serve_deadline_misses - b.serve_deadline_misses);
  out.values["serve.sheds"] = double(a.serve_sheds - b.serve_sheds);
}

}  // namespace pb
