// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer (the program under test is
// not instrumented further), kept in memory, and written out at exit as
// Chrome trace_event JSON.
//
// A span has a name, a start and end on the steady clock, the span that
// caused it (the innermost open span on the same thread) and a trace id
// shared by every span of one request or pipeline pass. When the tracer is
// disabled, Span objects cost one branch.
#ifndef KGC_PERFBENCH_TRACE_H_
#define KGC_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: root
  uint64_t trace = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  int tid = 0;
  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a finished span (used for spans timed elsewhere, e.g. a
  /// request's send->reply interval measured by the load generator).
  void Record(SpanRecord record);
  uint64_t NextId();

  /// Durations (seconds) of every recorded span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of durations of spans named `name`.
  double Total(const std::string& name) const;
  /// Per-name totals of every span whose parent is a span named `parent`.
  std::map<std::string, double> ChildTotals(const std::string& parent) const;

  /// Writes every span as Chrome trace_event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, records on destruction. Nested spans
/// on the same thread take the enclosing one as parent and inherit its
/// trace id; a root span starts a new trace unless one is given.
class Span {
 public:
  explicit Span(const std::string& name, uint64_t trace = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  Span* outer_ = nullptr;
};

}  // namespace perfbench

#endif  // KGC_PERFBENCH_TRACE_H_
