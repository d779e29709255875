#include "trace.hpp"

#include <atomic>
#include <cstdio>

#include "stats.hpp"

namespace pb {

namespace {
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};
thread_local uint64_t t_current = 0;
thread_local uint32_t t_tid = 0;

uint32_t this_tid() {
  if (!t_tid) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}
}  // namespace

double now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

uint64_t Tracer::next_id() { return g_next_id.fetch_add(1); }

void Tracer::push(SpanRecord r) {
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans)
    ++dropped_;
  else
    spans_.push_back(std::move(r));
}

void Tracer::record(std::string name, double start_us, double end_us,
                    uint64_t req, uint64_t parent) {
  push({std::move(name), start_us, end_us, next_id(), parent, req, this_tid()});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"req\": %llu}}\n",
                 i ? "," : "", json_escape(s.name).c_str(), s.tid, s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t req) {
  if (!Tracer::get().enabled()) return;
  name_ = name;
  open(req);
}

Span::Span(std::string name, uint64_t req) {
  if (!Tracer::get().enabled()) return;
  name_ = std::move(name);
  open(req);
}

void Span::open(uint64_t req) {
  on_ = true;
  req_ = req;
  parent_ = t_current;
  id_ = Tracer::get().next_id();
  t_current = id_;
  start_ = now_us();
}

Span::~Span() {
  if (!on_) return;
  const double end = now_us();
  t_current = parent_;
  // Recorded under the id its children already point at.
  Tracer::get().push(
      {std::move(name_), start_, end, id_, parent_, req_, this_tid()});
}

}  // namespace pb
