// train-resnet20: a closed loop of SGD steps on resnet20:16 under the
// paper's default eager-SR scenario, batch 32, engine threads 3, on
// SyntheticImages with augment_batch. The step is the one
// Trainer::train_epoch takes, built from the same public calls so each phase
// can be timed: data, forward, loss, backward, optimizer + loss scaler.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "data/augment.hpp"
#include "data/synthetic.hpp"
#include "engine/emu_engine.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "train/loss_scaler.hpp"
#include "train/optimizer.hpp"

namespace pb {

namespace {

constexpr int kBatch = 32;
constexpr int kThreads = 3;  // + the stepping thread's own share = nproc 4
constexpr int kCheckBatch = 2;  // reference-backend check, kept cheap
constexpr int kSetupTrials = 5;
constexpr uint64_t kInitSeed = 0xBE7C;
constexpr float kLr = 0.05f;
const char* kModel = "resnet20:16";

struct Phases {
  double data = 0, fwd = 0, loss = 0, bwd = 0, opt = 0, step = 0;
};

/// One training session: model, engine, optimizer, loss scaler and data.
class TrainRig {
 public:
  TrainRig(uint64_t seed, const std::string& backend, int batch)
      : spec_(srmac::ModelSpec::parse_or_die(kModel)),
        model_(spec_.build(kInitSeed)),
        engine_(srmac::EmuEngine::Builder()
                    .scenario(kScenario)
                    .backend(backend)
                    .threads(kThreads)
                    .build()),
        optim_(params(*model_), kLr, 0.9f, 1e-4f),
        rng_(seed ^ 0xDA7A),
        data_(data_options(seed)),
        batch_(batch) {
    order_.resize(static_cast<size_t>(data_.size()));
    std::iota(order_.begin(), order_.end(), 0);
  }

  /// One SGD step; `traced` walks the Sequential children itself so each
  /// child's forward and backward are timed and labelled.
  Phases step(bool traced) {
    Phases ph;
    Stopwatch total;
    Span step_span("train.step", static_cast<uint64_t>(step_) + 1);
    srmac::Batch batch;
    {
      Span s("train.data");
      Stopwatch w;
      batch = next_batch();
      ph.data = w.us();
    }
    optim_.zero_grad();
    const srmac::ComputeContext ctx =
        engine_.context().fork(0xE0000 + static_cast<uint64_t>(step_));
    srmac::Tensor logits;
    {
      Span s("train.fwd");
      Stopwatch w;
      logits = traced ? walk_forward(ctx, batch.images)
                      : model_->forward(ctx, batch.images, /*training=*/true);
      ph.fwd = w.us();
    }
    srmac::SoftmaxCrossEntropy head;
    float loss = 0;
    srmac::Tensor g;
    const float scale = scaler_.scale();
    {
      Span s("train.loss");
      Stopwatch w;
      loss = head.forward_loss(logits, batch.labels);
      if (std::isfinite(loss)) g = head.backward_loss(scale);
      ph.loss = w.us();
    }
    bool skip = true;
    if (std::isfinite(loss)) {
      Span s("train.bwd");
      Stopwatch w;
      if (traced) walk_backward(ctx.backward(), g);
      else model_->backward(ctx.backward(), g);
      ph.bwd = w.us();
    }
    {
      Span s("train.opt");
      Stopwatch w;
      skip = std::isfinite(loss)
                 ? scaler_.update(optim_.grads_overflowed(scale))
                 : scaler_.update(true);
      optim_.step(scale, skip);
      ph.opt = w.us();
    }
    last_loss_ = loss;
    last_logits_ = std::move(logits);
    ++step_;
    ph.step = total.us();
    return ph;
  }

  uint64_t digest() {
    uint32_t lb = 0;
    std::memcpy(&lb, &last_loss_, sizeof lb);
    return param_digest(*model_, lb);
  }
  const srmac::Tensor& last_logits() const { return last_logits_; }
  srmac::EmuEngine& engine() { return engine_; }
  srmac::Sequential& model() { return *model_; }
  int skipped() const { return scaler_.skipped_steps(); }
  const srmac::ModelSpec& spec() const { return spec_; }

  /// Per-child forward / backward / GEMM microseconds of the traced steps.
  std::vector<double> child_fwd, child_bwd, child_gemm;

 private:
  static std::vector<srmac::Param*> params(srmac::Layer& m) {
    std::vector<srmac::Param*> p;
    m.collect_params(p);
    return p;
  }
  static srmac::SyntheticImages::Options data_options(uint64_t seed) {
    srmac::SyntheticImages::Options o;
    o.size = 16;
    o.train_samples = 1024;
    o.seed = seed;
    return o;
  }

  srmac::Batch next_batch() {
    if (cursor_ + batch_ > static_cast<int>(order_.size())) cursor_ = 0;
    if (cursor_ == 0)  // reshuffle per epoch, as Trainer::train_epoch does
      for (size_t i = order_.size() - 1; i > 0; --i)
        std::swap(order_[i], order_[rng_.below(i + 1)]);
    std::vector<int> idx(order_.begin() + cursor_,
                         order_.begin() + cursor_ + batch_);
    cursor_ += batch_;
    srmac::Batch b = data_.make_batch(idx);
    srmac::augment_batch(b, rng_);
    return b;
  }

  void ensure_child_slots() {
    if (child_fwd.empty()) {
      child_fwd.assign(model_->size(), 0);
      child_bwd.assign(model_->size(), 0);
      child_gemm.assign(model_->size(), 0);
    }
  }

  // Sequential::forward's walk (same forks and per-layer rules), timed.
  srmac::Tensor walk_forward(const srmac::ComputeContext& ctx,
                             const srmac::Tensor& x) {
    ensure_child_slots();
    srmac::Tensor h = x;
    for (size_t i = 0; i < model_->size(); ++i) {
      srmac::Layer& l = model_->child(i);
      const bool linear = dynamic_cast<srmac::Linear*>(&l) != nullptr;
      set_label({static_cast<int>(i), 0, batch_, linear});
      Span s("fwd." + child_key(static_cast<int>(i)) + "." + l.name(),
             static_cast<uint64_t>(step_) + 1);
      const double g0 = thread_gemm_us();
      Stopwatch w;
      h = l.forward(ctx.fork(i + 1).for_layer(l.name()), h, /*training=*/true);
      child_fwd[i] += w.us();
      child_gemm[i] += thread_gemm_us() - g0;
    }
    set_label({});
    return h;
  }

  // Sequential::backward's walk on a backend without gemm_batch support,
  // where it dispatches every layer's GEMMs directly (no gradient bucket).
  void walk_backward(const srmac::ComputeContext& ctx, srmac::Tensor g) {
    check(!ctx.backend->supports_batch(),
          "the traced backward walk expects a non-batching backend");
    ensure_child_slots();
    const size_t n = model_->size();
    for (size_t k = n; k-- > 0;) {
      srmac::Layer& l = model_->child(k);
      set_label({static_cast<int>(k), 1, batch_,
                 dynamic_cast<srmac::Linear*>(&l) != nullptr});
      Span s("bwd." + child_key(static_cast<int>(k)) + "." + l.name(),
             static_cast<uint64_t>(step_) + 1);
      const double g0 = thread_gemm_us();
      Stopwatch w;
      g = l.backward(ctx.fork(1000 + k + 1).for_layer(l.name()), g);
      child_bwd[k] += w.us();
      child_gemm[k] += thread_gemm_us() - g0;
    }
    set_label({});
  }

  srmac::ModelSpec spec_;
  std::unique_ptr<srmac::Sequential> model_;
  srmac::EmuEngine engine_;
  srmac::SgdMomentum optim_;
  srmac::DynamicLossScaler scaler_{1024.0f};
  srmac::Xoshiro256 rng_;
  srmac::SyntheticImages data_;
  std::vector<int> order_;
  int cursor_ = 0;
  int batch_;
  int step_ = 0;
  float last_loss_ = 0;
  srmac::Tensor last_logits_;
};

struct Window {
  std::vector<Phases> steps;
  double wall_s = 0, cpu_ms_per_sample = 0;
  srmac::TelemetrySnapshot before, after;
};

Window measure(TrainRig& rig, double seconds, bool traced) {
  Window w;
  w.before = rig.engine().telemetry().snapshot();
  const double cpu0 = process_cpu_s();
  Stopwatch clock;
  while (clock.s() < seconds) w.steps.push_back(rig.step(traced));
  w.wall_s = clock.s();
  w.cpu_ms_per_sample = cpu_ms_per_sample(
      cpu0, process_cpu_s(), w.steps.size() * static_cast<uint64_t>(kBatch));
  w.after = rig.engine().telemetry().snapshot();
  return w;
}

/// MACs of the window must be exactly steps x batch x (forward + both
/// backward GEMMs) per sample, as derived from the layer shapes.
void check_macs(TrainRig& rig, const Window& w) {
  const uint64_t per_sample =
      3 * forward_macs_per_sample(rig.model(), rig.spec().input_shape());
  const uint64_t want = per_sample * kBatch * w.steps.size();
  const uint64_t got = w.after.macs - w.before.macs;
  check(got == want, "train: telemetry counted " + std::to_string(got) +
                         " MACs, the layer shapes give " +
                         std::to_string(want));
}

/// One step on the workload's backend and threads is bitwise equal to the
/// same step on the golden MacUnit "reference" backend (reduced batch).
void check_against_reference(uint64_t seed) {
  TrainRig fused(seed, "fused", kCheckBatch);
  TrainRig ref(seed, "reference", kCheckBatch);
  fused.step(false);
  ref.step(false);
  check(same_bits(fused.last_logits(), ref.last_logits()) &&
            fused.digest() == ref.digest(),
        "train: a step on the fused backend differs from the reference "
        "backend");
}

}  // namespace

Outcome run_train(const Options& opt) {
  Outcome out;
  // Reference computation (untimed): the first step's digest.
  uint64_t want_digest = 0;
  {
    TrainRig r(opt.seed, "fused", kBatch);
    r.step(false);
    want_digest = r.digest();
  }
  check_against_reference(opt.seed);

  if (!opt.trace) {
    // Cold start: construction to the first verified step, median of trials.
    std::vector<double> setup;
    std::unique_ptr<TrainRig> rig;
    for (int t = 0; t < kSetupTrials; ++t) {
      rig.reset();
      Stopwatch w;
      rig = std::make_unique<TrainRig>(opt.seed, "fused", kBatch);
      rig->step(false);
      check(rig->digest() == want_digest,
            "train: first step differs between identical sessions");
      setup.push_back(w.s());
    }
    rig->step(false);  // warm-up
    const Window w = measure(*rig, opt.seconds, false);
    check_macs(*rig, w);

    std::vector<double> step_us;
    for (const Phases& p : w.steps) step_us.push_back(p.step);
    const Percentile tail = tail_percentile(step_us);
    const double macs = static_cast<double>(w.after.macs - w.before.macs);
    out.attempted = w.steps.size();
    // Every step does the same work, so the median step is the rate.
    const double p50 = median(step_us);
    out.values["samples_per_s"] = kBatch * 1e6 / p50;
    out.values["mmac_per_s"] = macs / static_cast<double>(w.steps.size()) / p50;
    out.values["latency_p50_us"] = p50;
    out.values["latency_tail_us"] = tail.value;
    out.values["cpu_ms_per_sample"] = w.cpu_ms_per_sample;
    out.values["setup_s"] = median(setup);
    out.values["peak_rss_mb"] = peak_rss_mb();
    out.notes.push_back("latency is per SGD step of " +
                        std::to_string(kBatch) + " samples; " +
                        std::to_string(w.steps.size() * kBatch / w.wall_s) +
                        " samples/s overall; tail = p" +
                        std::to_string(static_cast<int>(tail.pct)) + " of " +
                        std::to_string(tail.n) + " steps");
    return out;
  }

  // Traced run: untraced and traced windows alternate, a quarter of the time
  // each (A B A B), so drift hits both sides of the tracing overhead; the
  // per-layer figures come from the last traced window.
  register_probe_backend();
  TrainRig plain(opt.seed, "fused", kBatch);
  plain.step(false);
  TrainRig rig(opt.seed, kProbeBackend, kBatch);
  Tracer::get().set_enabled(true);
  rig.step(true);
  check(rig.digest() == want_digest,
        "train: the traced child-by-child step differs from the untraced one");
  double rate_plain = 0, rate_traced = 0;
  Window w;
  for (int round = 0; round < 2; ++round) {
    Tracer::get().set_enabled(false);
    const Window a = measure(plain, opt.seconds / 4, false);
    rate_plain += a.steps.size() * kBatch / a.wall_s;
    Tracer::get().set_enabled(true);
    if (round == 1) {
      take_events();
      rig.child_fwd.assign(rig.model().size(), 0);
      rig.child_bwd.assign(rig.model().size(), 0);
      rig.child_gemm.assign(rig.model().size(), 0);
      set_recording(true);
    }
    w = measure(rig, opt.seconds / 4, true);
    rate_traced += w.steps.size() * kBatch / w.wall_s;
  }
  set_recording(false);
  Tracer::get().set_enabled(false);
  check_macs(rig, w);
  out.values["trace.overhead_frac"] = 1.0 - rate_traced / rate_plain;

  const double steps = static_cast<double>(w.steps.size());
  const double samples = steps * kBatch;
  out.attempted = w.steps.size();

  // Ledger self-check: the phases must cover each step.
  double covered = 0, step_total = 0, fwd_bwd = 0;
  std::vector<double> data, fwd, loss, bwd, optv;
  for (const Phases& p : w.steps) {
    data.push_back(p.data);
    fwd.push_back(p.fwd);
    loss.push_back(p.loss);
    bwd.push_back(p.bwd);
    optv.push_back(p.opt);
    step_total += p.step;
    fwd_bwd += p.fwd + p.bwd;
    covered += p.data + p.fwd + p.loss + p.bwd + p.opt;
  }
  const double phase_gap = 1.0 - covered / step_total;
  out.notes.push_back("ledger: train phases cover " +
                      std::to_string(100.0 * (1 - phase_gap)) +
                      "% of step time (bound: gap <= 2%)");
  check(phase_gap >= 0 && phase_gap <= 0.02,
        "train ledger: phase spans do not sum to the step time");
  double child_sum = 0;
  for (size_t i = 0; i < rig.child_fwd.size(); ++i)
    child_sum += rig.child_fwd[i] + rig.child_bwd[i];
  const double child_gap = 1.0 - child_sum / fwd_bwd;
  out.notes.push_back("ledger: children cover " +
                      std::to_string(100.0 * (1 - child_gap)) +
                      "% of forward+backward time (bound: gap <= 2%)");
  check(child_gap >= 0 && child_gap <= 0.02,
        "train ledger: per-child spans do not sum to forward+backward time");

  out.values["train.data_us"] = median(data);
  out.values["train.fwd_us"] = median(fwd);
  out.values["train.loss_us"] = median(loss);
  out.values["train.bwd_us"] = median(bwd);
  out.values["train.opt_us"] = median(optv);
  out.values["train.skipped_steps"] = rig.skipped() / (steps + 1);
  for (size_t i = 0; i < rig.child_fwd.size() && i < kNnChildren; ++i) {
    const std::string k = child_key(static_cast<int>(i));
    out.values["nn.fwd_us." + k] = rig.child_fwd[i] / samples;
    out.values["nn.bwd_us." + k] = rig.child_bwd[i] / samples;
    out.values["nn.self_us." + k] =
        (rig.child_fwd[i] + rig.child_bwd[i] - rig.child_gemm[i]) / samples;
    out.notes.push_back("child " + k + " = " + rig.model().child(i).name());
  }

  engine_rows(w.before, w.after, samples, w.wall_s, out);

  mac_rows(take_events(), static_cast<uint64_t>(samples), kThreads, out);

  write_trace(opt, out);
  return out;
}

}  // namespace pb
