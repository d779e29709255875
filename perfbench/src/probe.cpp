#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "engine/registry.hpp"
#include "trace.hpp"

namespace pb {

namespace {

std::atomic<bool> g_recording{false};
std::mutex g_mu;
std::vector<GemmEvent> g_events;  // guarded by g_mu
using ShapeKey = std::tuple<int, int, int, int, int, bool>;
std::map<ShapeKey, Operands> g_operands;  // guarded by g_mu
thread_local Label t_label;
thread_local double t_gemm_us = 0;

constexpr size_t kMaxEvents = 4'000'000;

class ProbeBackend final : public srmac::MatmulBackend {
 public:
  explicit ProbeBackend(const srmac::MatmulBackend* inner) : inner_(inner) {}
  std::string name() const override { return kProbeBackend; }
  bool bit_accurate() const override { return inner_->bit_accurate(); }
  bool supports_prequantized() const override {
    return inner_->supports_prequantized();
  }
  bool supports_grouped() const override { return inner_->supports_grouped(); }
  bool supports_batch() const override { return inner_->supports_batch(); }

  void gemm(const srmac::MacConfig& cfg,
            const srmac::GemmArgs& a) const override {
    capture(a, false, [&](Operands& o) {
      o.A = dense(a.A, a.M, a.K, a.lda);
      o.B = dense(a.B, a.K, a.N, a.ldb);
    });
    Timed t(a.M, a.N, a.K, a.seed_row_period, a.seed_col_period, false);
    inner_->gemm(cfg, a);
  }
  void gemm_bits(const srmac::MacConfig& cfg,
                 const srmac::GemmBitsArgs& a) const override {
    capture(a, true, [&](Operands& o) {
      o.Aq = dense(a.Aq, a.M, a.K, a.lda);
      o.Bq = dense(a.Bq, a.K, a.N, a.ldb);
    });
    Timed t(a.M, a.N, a.K, a.seed_row_period, a.seed_col_period, true);
    inner_->gemm_bits(cfg, a);
  }
  // gemm_batch is the base class's loop over gemm()/gemm_bits() above, as
  // on the fused backend itself, so every problem is seen individually.

 private:
  template <class T>
  static std::vector<T> dense(const T* p, int rows, int cols, int ld) {
    std::vector<T> out(static_cast<size_t>(rows) * cols);
    for (int r = 0; r < rows; ++r)
      std::copy_n(p + static_cast<size_t>(r) * ld, cols,
                  out.begin() + static_cast<ptrdiff_t>(r) * cols);
    return out;
  }
  template <class Args, class F>
  static void capture(const Args& a, bool bits, F&& copy) {
    if (!g_recording.load(std::memory_order_relaxed)) return;
    const ShapeKey key{a.M, a.N, a.K, a.seed_row_period, a.seed_col_period,
                       bits};
    std::lock_guard<std::mutex> lk(g_mu);
    if (g_operands.count(key)) return;
    copy(g_operands[key]);
  }
  struct Timed {
    GemmEvent ev;
    Span span;
    double t0;
    Timed(int M, int N, int K, int rp, int cp, bool bits)
        : span(std::to_string(M) + "x" + std::to_string(N) + "x" +
                   std::to_string(K),
               0),
          t0(now_us()) {
      ev.M = M;
      ev.N = N;
      ev.K = K;
      ev.row_period = rp;
      ev.col_period = cp;
      ev.bits = bits;
      ev.label = t_label;
    }
    ~Timed() {
      ev.us = now_us() - t0;
      t_gemm_us += ev.us;
      if (!g_recording.load(std::memory_order_relaxed)) return;
      std::lock_guard<std::mutex> lk(g_mu);
      if (g_events.size() < kMaxEvents) g_events.push_back(ev);
    }
  };
  const srmac::MatmulBackend* inner_;
};

}  // namespace

void register_probe_backend() {
  static std::once_flag once;
  std::call_once(once, [] {
    const srmac::MatmulBackend* fused =
        srmac::BackendRegistry::instance().get("fused");
    srmac::BackendRegistry::instance().register_backend(
        kProbeBackend, [fused] { return std::make_shared<ProbeBackend>(fused); });
  });
}

const Operands* captured(int M, int N, int K, int row_period, int col_period,
                         bool bits) {
  std::lock_guard<std::mutex> lk(g_mu);
  auto it = g_operands.find({M, N, K, row_period, col_period, bits});
  return it == g_operands.end() ? nullptr : &it->second;
}

void set_label(const Label& l) { t_label = l; }

void set_recording(bool on) { g_recording = on; }

std::vector<GemmEvent> take_events() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<GemmEvent> out;
  out.swap(g_events);
  return out;
}

double thread_gemm_us() { return t_gemm_us; }

}  // namespace pb
