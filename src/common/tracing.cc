#include "common/tracing.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/clock.h"
#include "common/json_escape.h"
#include "common/profiler.h"

namespace sqs {

namespace {

thread_local TraceContext g_current_context;

}  // namespace

Tracer& Tracer::Instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Configure(double sample_rate, size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity == 0) capacity = 1;
  if (capacity != capacity_) {
    ring_.clear();
    ring_.shrink_to_fit();
    write_ = 0;
    recorded_ = 0;
    capacity_ = capacity;
  }
  if (sample_rate <= 0) {
    sample_every_.store(0, std::memory_order_relaxed);
    return;
  }
  sample_every_.store(
      std::max<int64_t>(1, std::llround(1.0 / std::min(1.0, sample_rate))),
      std::memory_order_relaxed);
}

double Tracer::sample_rate() const {
  int64_t every = sample_every_.load(std::memory_order_relaxed);
  return every > 0 ? 1.0 / static_cast<double>(every) : 0.0;
}

TraceContext Tracer::MaybeStartTrace() {
  int64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every <= 0) return {};
  uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % static_cast<uint64_t>(every) != 0) return {};
  TraceContext ctx;
  ctx.trace_id = ++next_id_;
  ctx.span_id = 0;  // root: the first span under this context has no parent
  ctx.sampled = true;
  return ctx;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[write_ % capacity_] = std::move(span);
  }
  ++write_;
  ++recorded_;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring is full: oldest entry sits at the next write position.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(write_ + i) % capacity_]);
    }
  }
  return out;
}

int64_t Tracer::recorded_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

int64_t Tracer::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - static_cast<int64_t>(ring_.size());
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  write_ = 0;
  recorded_ = 0;
}

void Tracer::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    ring_.shrink_to_fit();
    write_ = 0;
    recorded_ = 0;
    capacity_ = kDefaultCapacity;
  }
  sample_every_.store(0, std::memory_order_relaxed);
  trace_seq_.store(0, std::memory_order_relaxed);
  next_id_.store(0, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return g_current_context; }

TraceSpan::TraceSpan(const TraceContext& parent, std::string_view name,
                     std::string_view scope, int64_t tag) {
  // Every span — sampled or not — contributes a frame to the thread's
  // cooperative profiling stack, so the sampler and the stall-watchdog
  // burst always see what this thread is doing (docs/PROFILING.md).
  Profiler::PushFrame(Profiler::Intern(name));
  prev_ = g_current_context;
  if (parent.valid() && Tracer::Instance().enabled()) {
    active_ = true;
    span_.trace_id = parent.trace_id;
    span_.span_id = Tracer::Instance().NextSpanId();
    span_.parent_span_id = parent.span_id;
    span_.name.assign(name);
    span_.scope.assign(scope);
    span_.tag = tag;
    span_.start_ns = MonotonicNanos();
    g_current_context = TraceContext{span_.trace_id, span_.span_id, true};
  } else {
    // Clear the ambient context so nothing started in this extent attaches
    // to an unrelated earlier span.
    g_current_context = TraceContext{};
  }
}

TraceSpan::~TraceSpan() {
  if (active_) {
    span_.duration_ns = MonotonicNanos() - span_.start_ns;
    Tracer::Instance().Record(std::move(span_));
  }
  g_current_context = prev_;
  Profiler::PopFrame();
}

TraceContext TraceSpan::context() const {
  if (!active_) return {};
  return TraceContext{span_.trace_id, span_.span_id, true};
}

std::map<std::string, SpanStats> ComputeSpanStats(const std::vector<Span>& spans,
                                                  const std::string& scope_prefix) {
  auto in_scope = [&](const Span& s) {
    return scope_prefix.empty() ||
           s.scope.compare(0, scope_prefix.size(), scope_prefix) == 0;
  };
  // Sum of in-scope child durations per parent span id; ring eviction can
  // orphan children, in which case their time simply stays with nobody.
  std::map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent_span_id != 0 && in_scope(s)) {
      child_ns[s.parent_span_id] += s.duration_ns;
    }
  }
  std::map<std::string, SpanStats> stats;
  for (const Span& s : spans) {
    if (!in_scope(s)) continue;
    SpanStats& st = stats[s.name];
    st.count += 1;
    st.inclusive_ns += s.duration_ns;
    auto it = child_ns.find(s.span_id);
    int64_t self = s.duration_ns - (it == child_ns.end() ? 0 : it->second);
    st.self_ns += std::max<int64_t>(0, self);
  }
  return stats;
}

std::string SpansToChromeTraceJson(const std::vector<Span>& spans) {
  // Stable small thread ids per scope so Perfetto groups spans by component.
  std::map<std::string, int> tids;
  for (const Span& s : spans) {
    tids.emplace(s.scope, static_cast<int>(tids.size()) + 1);
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [scope, tid] : tids) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"";
    os << JsonEscape(scope);
    os << "\"}}";
  }
  os.setf(std::ios::fixed);
  os.precision(3);
  for (const Span& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    os << JsonEscape(s.name);
    os << "\",\"cat\":\"";
    os << JsonEscape(s.scope);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[s.scope]
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.duration_ns) / 1000.0
       << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"span_id\":" << s.span_id
       << ",\"parent_span_id\":" << s.parent_span_id << ",\"tag\":" << s.tag
       << "}}";
  }
  os << "]}";
  return os.str();
}

}  // namespace sqs
