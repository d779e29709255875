#pragma once

// The traced run's view of the GEMM layer: a MatmulBackend registered under
// its own name through the library's public backend registry. It forwards
// every call unchanged to the "fused" backend (so the bits are the fused
// backend's bits) and records each dispatch's shape, its time, and the label
// the driver set on the calling thread for the layer call it is inside.

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

inline constexpr const char* kProbeBackend = "perfbench_probe";

/// What the driver is calling when GEMMs dispatch on this thread.
struct Label {
  int child = -1;       ///< Sequential::child index (-1: outside a child)
  int pass = 0;         ///< 0 forward, 1 backward
  int batch = 1;        ///< samples the call covers
  bool linear = false;  ///< the child is a Linear layer (rows = samples)
};

struct GemmEvent {
  int M = 0, N = 0, K = 0;
  int row_period = 0, col_period = 0;
  bool bits = false;  ///< pre-quantized operands (gemm_bits)
  double us = 0;
  Label label;
};

/// Dense copies of the operands of the first recorded dispatch of a shape,
/// so replays run on the data the layers really multiplied. Pre-quantized
/// dispatches keep bits, float dispatches keep floats.
struct Operands {
  std::vector<uint32_t> Aq, Bq;
  std::vector<float> A, B;
};

/// The captured operands of (M, N, K, periods, bits), or null.
const Operands* captured(int M, int N, int K, int row_period, int col_period,
                         bool bits);

/// Registers the probe backend (idempotent).
void register_probe_backend();

/// Sets the label of this thread's following GEMM dispatches.
void set_label(const Label& l);

/// Starts/stops recording (dispatch always forwards).
void set_recording(bool on);

/// Moves out the recorded events.
std::vector<GemmEvent> take_events();

/// In-situ GEMM microseconds dispatched from this thread so far (recording
/// or not) — a layer's GEMM share is the difference around its call.
double thread_gemm_us();

}  // namespace pb
