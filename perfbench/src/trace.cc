#include "trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <unordered_map>

#include "common.h"

namespace perfbench {

namespace {

thread_local Span* t_open_span = nullptr;

int ThreadId() { return static_cast<int>(::syscall(SYS_gettid)); }

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(SpanRecord record) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (record.id == 0) record.id = next_id_++;
  if (record.trace == 0) record.trace = record.id;
  spans_.push_back(std::move(record));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.duration());
  }
  return out;
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::map<std::string, double> Tracer::ChildTotals(
    const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, bool> parents;
  for (const SpanRecord& span : spans_) {
    if (span.name == parent) parents[span.id] = true;
  }
  std::map<std::string, double> totals;
  for (const SpanRecord& span : spans_) {
    if (parents.count(span.parent) != 0) totals[span.name] += span.duration();
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", out);
  double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const SpanRecord& span : spans_) {
    if (span.start_s < origin) origin = span.start_s;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"trace\": %llu}}%s\n",
                 JsonString(span.name).c_str(), span.tid,
                 (span.start_s - origin) * 1e6, span.duration() * 1e6,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.trace),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

Span::Span(const std::string& name, uint64_t trace) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  outer_ = t_open_span;
  record_.name = name;
  record_.id = tracer.NextId();
  record_.parent = outer_ != nullptr ? outer_->record_.id : 0;
  record_.trace = trace != 0                ? trace
                  : outer_ != nullptr      ? outer_->record_.trace
                                           : record_.id;
  record_.tid = ThreadId();
  t_open_span = this;
  record_.start_s = NowSeconds();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = NowSeconds();
  t_open_span = outer_;
  Tracer::Get().Record(std::move(record_));
}

}  // namespace perfbench
