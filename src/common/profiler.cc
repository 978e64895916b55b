#include "common/profiler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"

namespace sqs {

namespace {

// ---------------------------------------------------------------------------
// Label interning. The global arena is an unordered_set<std::string> (node
// based, so c_str() pointers are stable); each thread keeps a memo so the
// steady state takes no lock. Both are intentionally leaked: frames read by
// the sampler must stay valid past any thread's exit.
// ---------------------------------------------------------------------------

struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const { return a == b; }
};

const char* InternGlobal(std::string_view label) {
  static std::mutex* mu = new std::mutex;
  static auto* arena = new std::unordered_set<std::string, SvHash, SvEq>;
  std::lock_guard<std::mutex> lock(*mu);
  auto it = arena->find(label);
  if (it == arena->end()) it = arena->emplace(label).first;
  return it->c_str();
}

// ---------------------------------------------------------------------------
// Per-thread frame stacks. Single writer (the owning thread), racy readers
// (the sampler): frame slots hold immortal interned pointers, so a stale or
// mid-update read yields a *wrong* stack for one sample, never an invalid
// pointer. Depth is published with release so a sampler that observes depth
// d also observes the frames below it.
// ---------------------------------------------------------------------------

struct ThreadFrames {
  std::atomic<uint32_t> depth{0};
  std::atomic<const char*> frames[Profiler::kMaxDepth] = {};
  std::atomic<bool> live{true};
};

struct FrameRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadFrames>> threads;
};

FrameRegistry& frame_registry() {
  static auto* r = new FrameRegistry;
  return *r;
}

ThreadFrames* CurrentThreadFrames() {
  thread_local struct Handle {
    ThreadFrames* tf = nullptr;
    Handle() {
      auto owned = std::make_unique<ThreadFrames>();
      tf = owned.get();
      FrameRegistry& r = frame_registry();
      std::lock_guard<std::mutex> lock(r.mu);
      r.threads.push_back(std::move(owned));
    }
    ~Handle() { tf->live.store(false, std::memory_order_release); }
  } handle;
  return handle.tf;
}

// Sampler thread state (separate from the Profiler object so the singleton
// stays trivially destructible-free).
struct SamplerState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool stop = false;
};

SamplerState& sampler_state() {
  static auto* s = new SamplerState;
  return *s;
}

// Folded-stack aggregation: stack (vector of interned pointers, root first)
// -> sample count.
struct SampleStore {
  mutable std::mutex mu;
  std::map<std::vector<const char*>, int64_t> counts;
  int64_t total = 0;
};

SampleStore& sample_store() {
  static auto* s = new SampleStore;
  return *s;
}

double ClampHz(double hz) { return std::min(1000.0, std::max(1.0, hz)); }

}  // namespace

Profiler& Profiler::Instance() {
  static Profiler* profiler = new Profiler;
  return *profiler;
}

const char* Profiler::Intern(std::string_view label) {
  thread_local std::unordered_map<std::string, const char*, SvHash, SvEq> memo;
  auto it = memo.find(label);
  if (it != memo.end()) return it->second;
  const char* interned = InternGlobal(label);
  memo.emplace(std::string(label), interned);
  return interned;
}

void Profiler::PushFrame(const char* label) {
  ThreadFrames* tf = CurrentThreadFrames();
  uint32_t d = tf->depth.load(std::memory_order_relaxed);
  if (d < kMaxDepth) tf->frames[d].store(label, std::memory_order_relaxed);
  tf->depth.store(d + 1, std::memory_order_release);
}

void Profiler::PopFrame() {
  ThreadFrames* tf = CurrentThreadFrames();
  uint32_t d = tf->depth.load(std::memory_order_relaxed);
  if (d > 0) tf->depth.store(d - 1, std::memory_order_release);
}

size_t Profiler::CurrentDepth() {
  return CurrentThreadFrames()->depth.load(std::memory_order_relaxed);
}

size_t Profiler::SampleOnce() {
  std::vector<std::vector<const char*>> stacks;
  {
    FrameRegistry& r = frame_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& tf : r.threads) {
      if (!tf->live.load(std::memory_order_acquire)) continue;
      uint32_t d = tf->depth.load(std::memory_order_acquire);
      if (d == 0) continue;  // idle thread: not on the engine's CPU paths
      if (d > kMaxDepth) d = kMaxDepth;
      std::vector<const char*> stack;
      stack.reserve(d);
      for (uint32_t i = 0; i < d; ++i) {
        const char* f = tf->frames[i].load(std::memory_order_relaxed);
        if (f == nullptr) break;  // racing push: frame not yet stored
        stack.push_back(f);
      }
      if (!stack.empty()) stacks.push_back(std::move(stack));
    }
  }
  if (stacks.empty()) return 0;
  SampleStore& store = sample_store();
  std::lock_guard<std::mutex> lock(store.mu);
  for (auto& stack : stacks) {
    store.counts[std::move(stack)] += 1;
    store.total += 1;
  }
  return stacks.size();
}

void Profiler::SamplerLoop(double hz) {
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / ClampHz(hz)));
  SamplerState& s = sampler_state();
  std::unique_lock<std::mutex> lock(s.mu);
  while (!s.stop) {
    lock.unlock();
    SampleOnce();
    lock.lock();
    s.cv.wait_for(lock, period, [&] { return s.stop; });
  }
}

Status Profiler::StartSampling(double hz) {
  if (hz <= 0) return Status::InvalidArgument("profile hz must be > 0");
  StopSampling();
  SamplerState& s = sampler_state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.stop = false;
  }
  hz_.store(ClampHz(hz), std::memory_order_relaxed);
  sampling_.store(true, std::memory_order_relaxed);
  s.thread = std::thread([this, hz] { SamplerLoop(hz); });
  return Status::Ok();
}

void Profiler::StopSampling() {
  SamplerState& s = sampler_state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.stop = true;
  }
  s.cv.notify_all();
  if (s.thread.joinable()) s.thread.join();
  sampling_.store(false, std::memory_order_relaxed);
  hz_.store(0.0, std::memory_order_relaxed);
}

Status Profiler::SampleFor(int64_t duration_ms, double hz) {
  if (duration_ms <= 0) return Status::InvalidArgument("burst duration must be > 0");
  if (hz <= 0) return Status::InvalidArgument("profile hz must be > 0");
  const auto period =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / ClampHz(hz)));
  const int64_t end_ns = MonotonicNanos() + duration_ms * 1000000;
  while (MonotonicNanos() < end_ns) {
    SampleOnce();
    std::this_thread::sleep_for(period);
  }
  return Status::Ok();
}

std::string Profiler::CollapsedStacks() const {
  std::vector<std::pair<std::string, int64_t>> lines;
  {
    SampleStore& store = sample_store();
    std::lock_guard<std::mutex> lock(store.mu);
    lines.reserve(store.counts.size());
    for (const auto& [stack, count] : store.counts) {
      std::string folded;
      for (size_t i = 0; i < stack.size(); ++i) {
        if (i) folded += ';';
        folded += stack[i];
      }
      lines.emplace_back(std::move(folded), count);
    }
  }
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::ostringstream os;
  for (const auto& [folded, count] : lines) {
    os << folded << ' ' << count << '\n';
  }
  return os.str();
}

bool Profiler::IsOperatorLabel(std::string_view label) {
  if (label.rfind("fused<", 0) == 0) return true;
  return label.size() >= 3 && label[0] == 'o' && label[1] == 'p' &&
         label[2] >= '0' && label[2] <= '9';
}

std::map<std::string, int64_t> Profiler::OperatorAttribution() const {
  std::map<std::string, int64_t> out;
  SampleStore& store = sample_store();
  std::lock_guard<std::mutex> lock(store.mu);
  for (const auto& [stack, count] : store.counts) {
    const char* bucket = stack.back();  // leaf, unless an operator frame wins
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (IsOperatorLabel(*it)) {
        bucket = *it;
        break;
      }
    }
    out[bucket] += count;
  }
  return out;
}

int64_t Profiler::TotalSamples() const {
  SampleStore& store = sample_store();
  std::lock_guard<std::mutex> lock(store.mu);
  return store.total;
}

void Profiler::ClearSamples() {
  SampleStore& store = sample_store();
  std::lock_guard<std::mutex> lock(store.mu);
  store.counts.clear();
  store.total = 0;
}

void Profiler::Reset() {
  StopSampling();
  ClearSamples();
}

std::string RenderOperatorAttribution(
    const std::map<std::string, int64_t>& attribution, int64_t total) {
  char line[192];
  std::snprintf(line, sizeof(line), "%-36s %10s %8s\n", "operator", "samples",
                "cpu");
  std::string out = line;
  std::vector<std::pair<std::string, int64_t>> rows(attribution.begin(),
                                                    attribution.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  for (const auto& [label, samples] : rows) {
    std::snprintf(line, sizeof(line), "%-36s %10lld %7.1f%%\n", label.c_str(),
                  static_cast<long long>(samples),
                  100.0 * static_cast<double>(samples) / static_cast<double>(total));
    out += line;
  }
  return out;
}

}  // namespace sqs
