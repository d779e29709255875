// serve-resnet20: an in-process EmuServer on the default ServeConfig (only
// input_shape set) with engine threads 3, driven by one generator thread
// that keeps a closed-loop window of 16 requests (= max_batch) outstanding.
// Conv GEMMs dominate, so this is where kernel and executor changes show.

#include <deque>
#include <future>
#include <memory>

#include "common.hpp"
#include "engine/emu_engine.hpp"
#include "nn/model_zoo.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "serve/emu_server.hpp"
#include "trace.hpp"

namespace pb {

namespace {

constexpr int kThreads = 3;  // + the generator thread = nproc 4
constexpr int kWindow = 16;
constexpr int kSetupTrials = 15;
constexpr size_t kPool = 64;
constexpr double kWarmupS = 1.0;
constexpr uint64_t kInitSeed = 0xBE7C;
const char* kModel = "resnet20:16";

struct Rig {
  BatchLog log;
  std::unique_ptr<srmac::EmuServer> server;
  Rig(const srmac::ModelSpec& spec, const std::string& backend) {
    srmac::ServeConfig cfg;
    cfg.input_shape = spec.input_shape();
    server = std::make_unique<srmac::EmuServer>(
        spec.build(kInitSeed),
        srmac::EmuEngine::Builder()
            .scenario(kScenario)
            .backend(backend)
            .threads(kThreads)
            .build(),
        cfg, nullptr, nullptr, log.callback());
  }
};

constexpr int kBlocks = 10;  // the rate is a median over blocks of batches

struct Loop {
  std::vector<double> latency_us, done_us, submit_us, queue_us;
  std::vector<std::pair<double, uint64_t>> batches;  // (done, requests)
  double start_us = 0;
  std::vector<std::pair<size_t, srmac::Tensor>> outputs;
  uint64_t attempted = 0, failed = 0;
  double wall_s = 0, cpu_ms = 0;
  srmac::TelemetrySnapshot before, after;
};

/// The closed loop: kWindow requests outstanding; each completion submits
/// the next. Submission stops at `seconds`, then the window drains.
Loop closed_loop(srmac::EmuServer& server, BatchLog& log, const Pool& pool,
                 uint64_t& seq, double seconds, bool traced) {
  struct Pending {
    std::future<srmac::InferResult> fut;
    double t0;
    size_t idx;
    uint64_t id;
  };
  Loop L;
  std::deque<Pending> window;
  uint64_t next_id = 1;
  auto submit = [&] {
    const size_t idx = splitmix64(seq) % pool.inputs.size();
    const uint64_t id = next_id++;
    const double t0 = now_us();
    {
      Span s("serve.submit", id);
      window.push_back({server.submit(pool.inputs[idx]), t0, idx, id});
    }
    L.submit_us.push_back(now_us() - t0);
    ++L.attempted;
  };
  auto complete = [&] {
    Pending p = std::move(window.front());
    window.pop_front();
    try {
      srmac::InferResult r = p.fut.get();
      const double t1 = now_us();
      L.latency_us.push_back(t1 - p.t0);
      L.done_us.push_back(t1);
      L.queue_us.push_back(static_cast<double>(r.queue_us));
      L.outputs.emplace_back(p.idx, std::move(r.output));
      if (traced) Tracer::get().record("serve.request", p.t0, t1, p.id, 0);
    } catch (const srmac::ServeException&) {
      ++L.failed;
    }
  };
  log.clear();
  L.before = server.telemetry();
  const double cpu0 = process_cpu_s();
  Stopwatch clock;
  L.start_us = now_us();
  for (int i = 0; i < kWindow; ++i) submit();
  while (clock.s() < seconds) {
    complete();
    submit();
  }
  // The drain runs a shrinking window; rates and latencies are taken over
  // the full-window part only.
  const double stop_us = now_us();
  while (!window.empty()) complete();
  L.wall_s = clock.s();
  for (const BatchLog::Event& e : log.events())
    if (e.done_us <= stop_us) L.batches.push_back({e.done_us, e.completed});
  while (!L.done_us.empty() && L.done_us.back() > stop_us) {
    L.done_us.pop_back();
    L.latency_us.pop_back();
  }
  L.cpu_ms = cpu_ms_per_sample(cpu0, process_cpu_s(), L.outputs.size());
  L.after = server.telemetry();
  return L;
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  const srmac::ModelSpec spec = srmac::ModelSpec::parse_or_die(kModel);
  const Pool pool = make_pool(spec, kInitSeed, opt.seed, kThreads, kPool);
  const uint64_t macs_per_sample =
      forward_macs_per_sample(*spec.build(kInitSeed), spec.input_shape());
  uint64_t seq = opt.seed ^ 0x5E4E;

  if (!opt.trace) {
    std::vector<double> setup;
    std::unique_ptr<Rig> rig;
    for (int t = 0; t < kSetupTrials; ++t) {
      rig.reset();
      Stopwatch w;
      rig = std::make_unique<Rig>(spec, "fused");
      const srmac::InferResult r = rig->server->submit(pool.inputs[0]).get();
      check(same_bits(r.output, pool.refs[0]),
            "serve: first reply differs from the offline model.forward");
      setup.push_back(w.s());
    }
    closed_loop(*rig->server, rig->log, pool, seq, kWarmupS, false);
    const Loop L = closed_loop(*rig->server, rig->log, pool, seq, opt.seconds, false);
    check_replies(L.outputs, pool, L.before, L.after, macs_per_sample);
    const Percentile tail = tail_percentile(L.latency_us);
    const double rate = block_rate(L.batches, L.start_us, kBlocks);
    out.attempted = L.attempted;
    out.failed = L.failed;
    out.values["samples_per_s"] = rate;
    out.values["mmac_per_s"] = rate * static_cast<double>(macs_per_sample) / 1e6;
    out.values["latency_p50_us"] = median(L.latency_us);
    out.values["latency_tail_us"] = tail.value;
    out.values["cpu_ms_per_sample"] = L.cpu_ms;
    out.values["setup_s"] = median(setup);
    out.values["peak_rss_mb"] = peak_rss_mb();
    out.notes.push_back(
        "closed loop, window " + std::to_string(kWindow) + "; " +
        std::to_string(L.outputs.size()) + " replies in " +
        std::to_string(L.wall_s) + " s (" +
        std::to_string(L.outputs.size() / L.wall_s) +
        "/s overall); rate is the median over " + std::to_string(kBlocks) +
        " blocks of batches; tail = p" + std::to_string(int(tail.pct)) +
        " of " + std::to_string(tail.n) + " requests");
    return out;
  }

  // Traced run: untraced and traced windows alternate, a quarter of the time
  // each (A B A B), so drift hits both sides of the tracing overhead; the
  // per-layer figures come from the last traced window.
  register_probe_backend();
  Rig plain(spec, "fused");
  Rig rig(spec, kProbeBackend);
  closed_loop(*plain.server, plain.log, pool, seq, kWarmupS, false);
  closed_loop(*rig.server, rig.log, pool, seq, kWarmupS, false);
  double rate_plain = 0, rate_traced = 0;
  Loop L;
  for (int round = 0; round < 2; ++round) {
    const Loop a =
        closed_loop(*plain.server, plain.log, pool, seq, opt.seconds / 4, false);
    check_replies(a.outputs, pool, a.before, a.after, macs_per_sample);
    rate_plain += a.outputs.size() / a.wall_s;
    Tracer::get().set_enabled(true);
    L = closed_loop(*rig.server, rig.log, pool, seq, opt.seconds / 4, true);
    Tracer::get().set_enabled(false);
    check_replies(L.outputs, pool, L.before, L.after, macs_per_sample);
    rate_traced += L.outputs.size() / L.wall_s;
  }
  const double samples = static_cast<double>(L.outputs.size());
  out.attempted = L.attempted;
  out.failed = L.failed;
  out.values["trace.overhead_frac"] = 1.0 - rate_traced / rate_plain;

  std::vector<double> exec_us;
  const BatchMix mix = batch_mix(rig.log.events(), &exec_us);
  const srmac::TelemetrySnapshot& a = L.after;
  const srmac::TelemetrySnapshot& b = L.before;
  serve_rows(b, a, L.submit_us, L.queue_us, exec_us, out);
  engine_rows(b, a, samples, L.wall_s, out);

  Tracer::get().set_enabled(true);
  serve_replay(spec, kInitSeed, rig.server->engine(), mix, pool.inputs,
               pool.refs, out);
  Tracer::get().set_enabled(false);

  write_trace(opt, out);
  return out;
}

}  // namespace pb
