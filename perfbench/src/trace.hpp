#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around its calls into the library; nothing inside
// the library is instrumented. Kept in memory, written once at exit as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/// Microseconds on the steady clock since the first call in the process.
double now_us();

struct SpanRecord {
  std::string name;
  double start_us = 0, end_us = 0;
  uint64_t id = 0;      ///< this span
  uint64_t parent = 0;  ///< enclosing span on the same thread (0 = root)
  uint64_t req = 0;     ///< request/step the span belongs to (shared id)
  uint32_t tid = 0;     ///< small per-thread number
};

class Tracer {
 public:
  /// Spans are dropped (and counted) past this many, so memory stays bounded.
  static constexpr size_t kMaxSpans = 2'000'000;

  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records a finished span.
  void record(std::string name, double start_us, double end_us, uint64_t req,
              uint64_t parent);

  size_t size() const;
  size_t dropped() const;

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span;
  /// returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  friend class Span;
  uint64_t next_id();
  void push(SpanRecord r);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  size_t dropped_ = 0;             // guarded by mu_
};

/// RAII span: opens on construction, records on destruction, and is the
/// parent of spans opened on the same thread while it lives. Free when the
/// tracer is disabled.
class Span {
 public:
  Span(const char* name, uint64_t req = 0);
  Span(std::string name, uint64_t req);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(uint64_t req);
  bool on_ = false;
  std::string name_;
  double start_ = 0;
  uint64_t id_ = 0, parent_ = 0, req_ = 0;
};

/// Wall-clock stopwatch in microseconds.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  double s() const { return us() * 1e-6; }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace pb
