#pragma once

// The traced run's replays: recorded GEMM shapes re-executed through the
// public kernel functions (mac.* rows), and served micro-batches re-executed
// child by child through forward_batch and CompiledModel::forward_batch
// (nn.* and compile.* rows of the serve workloads).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/emu_engine.hpp"
#include "nn/model_zoo.hpp"
#include "probe.hpp"
#include "serve/emu_server.hpp"
#include "trace.hpp"

namespace pb {

/// mac.<shape>.* rows from the forward GEMMs in `events`, which covered
/// `samples` samples in total. Each executed shape is replayed through
/// gemm_quantize, gemm_pack_b and gemm_mac_bits_packed (and an isolated
/// gemm_mac) at `threads`; times are reported per sample, and MMAC/s is the
/// in-situ rate the probe measured. Shapes outside mac_shape_keys() are
/// listed in `notes` only.
void mac_rows(const std::vector<GemmEvent>& events, uint64_t samples,
              int threads, Outcome& out);

/// Observed micro-batch sizes of a serve run: size -> batches, plus the
/// mean forward wall time (exec_us) the server reported per size.
struct BatchMix {
  std::map<int, uint64_t> batches;
  std::map<int, double> exec_us_mean;
};

/// Replays the most common observed batch sizes (covering most samples)
/// layer by layer on `engine` (the probe backend): every Sequential child's
/// forward_batch is timed (nn.fwd_us / nn.self_us per sample), the final
/// outputs must equal `refs` bit for bit, and the per-child sum must agree
/// with the server's exec_us within kLedgerBound. Then compiles the model
/// and replays the same sizes through CompiledModel::forward_batch
/// (compile.* rows, also checked against `refs`). Fills mac.* rows from
/// the GEMMs the replay dispatched.
void serve_replay(const srmac::ModelSpec& spec, uint64_t init_seed,
                  const srmac::EmuEngine& engine, const BatchMix& mix,
                  const std::vector<srmac::Tensor>& inputs,
                  const std::vector<srmac::Tensor>& refs, Outcome& out);

/// Allowed relative gap between the per-child replay sum and the server's
/// measured exec_us for the same batch size. The replay runs on an idle
/// server, so it reads somewhat faster than the loaded in-situ batch; a
/// stage the ledger missed would read far outside this.
inline constexpr double kLedgerBound = 0.5;

}  // namespace pb

namespace pb {

/// The seed-chosen sample pool of a serve workload: inputs from
/// ModelSpec::sample and their offline model.forward outputs (the
/// references every served reply is compared with).
struct Pool {
  std::vector<srmac::Tensor> inputs, refs;
};
Pool make_pool(const srmac::ModelSpec& spec, uint64_t init_seed, uint64_t seed,
               int threads, size_t n);

/// Every reply (pool index, output) equals its offline reference bit for
/// bit, and the engine counted exactly `macs_per_sample` MACs and one served
/// request per reply between the two snapshots. Fails the run otherwise.
void check_replies(
    const std::vector<std::pair<size_t, srmac::Tensor>>& replies,
    const Pool& pool, const srmac::TelemetrySnapshot& before,
    const srmac::TelemetrySnapshot& after, uint64_t macs_per_sample);

/// engine.* rows from two telemetry snapshots around a window that
/// completed `samples` samples in `wall_s` seconds.
void engine_rows(const srmac::TelemetrySnapshot& before,
                 const srmac::TelemetrySnapshot& after, double samples,
                 double wall_s, Outcome& out);

/// Collects the server's BatchCallback events: when each executed batch
/// finished, how many requests it completed, and its exec_us.
class BatchLog {
 public:
  struct Event {
    double done_us = 0;
    int completed = 0;
    uint64_t exec_us = 0;
  };

  BatchLog() = default;
  BatchLog(const BatchLog&) = delete;  // the callback holds its address
  BatchLog& operator=(const BatchLog&) = delete;

  srmac::EmuServer::BatchCallback callback() {
    return [this](const srmac::ReplicaBatchEvent& ev) {
      if (!ev.ran || !ev.ok) return;
      const double end = now_us();
      if (Tracer::get().enabled())
        Tracer::get().record("serve.exec.batch" + std::to_string(ev.completed),
                             end - static_cast<double>(ev.exec_us), end, 0, 0);
      std::lock_guard<std::mutex> lk(mu_);
      events_.push_back({end, static_cast<int>(ev.completed), ev.exec_us});
    };
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    events_.clear();
  }
  std::vector<Event> events() const {
    std::lock_guard<std::mutex> lk(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

/// The batch-size mix of logged batches; appends every exec_us to `exec_us`.
BatchMix batch_mix(const std::vector<BatchLog::Event>& events,
                   std::vector<double>* exec_us);

/// serve.* rows: client-timed submit calls, InferResult::queue_us, the
/// BatchCallback exec_us, and the server counters between two snapshots.
void serve_rows(const srmac::TelemetrySnapshot& before,
                const srmac::TelemetrySnapshot& after,
                const std::vector<double>& submit_us,
                const std::vector<double>& queue_us,
                const std::vector<double>& exec_us, Outcome& out);

}  // namespace pb
