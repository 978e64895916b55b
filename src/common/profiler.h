// In-process sampling profiler: dependency-free CPU attribution for the
// streaming engine. Instead of unwinding native frames (libunwind), every
// TraceSpan maintains a cooperative per-thread label stack — interned,
// immortal `const char*` frames — and a sampler walks all registered
// threads at `profile.hz`, aggregating the observed stacks into folded
// form. The output is flamegraph-ready collapsed-stack text plus a
// per-operator CPU-attribution table (EXPLAIN ANALYZE, SHOW PROFILE,
// GET /debug/profile).
//
// Cost model: frame push/pop is a thread-local lookup plus two relaxed
// stores and one release store; labels are interned through a thread-local
// memo so steady-state interning takes no lock. Sampling reads other
// threads' frames with relaxed atomics — a racing sample may observe a
// momentarily inconsistent stack (wrong attribution for that one sample),
// never a torn pointer, because every frame value is an immortal interned
// string. See docs/PROFILING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sqs {

class Profiler {
 public:
  // Frames beyond this depth are counted but not recorded (the sampler sees
  // a truncated stack). Far deeper than any plan the engine builds.
  static constexpr size_t kMaxDepth = 32;

  static Profiler& Instance();

  // Immortal interned copy of `label`; the returned pointer is stable for
  // the process lifetime and may be compared by identity.
  static const char* Intern(std::string_view label);

  // --- frame tracking (always on; called by TraceSpan) ---
  // `label` must be an interned/immortal pointer (see Intern).
  static void PushFrame(const char* label);
  static void PopFrame();
  // Current stack depth of the calling thread (tests).
  static size_t CurrentDepth();

  // --- timer-driven sampling ---
  // Start the background sampler thread at `hz` (clamped to [1, 1000]).
  // Restarting with a new rate stops the previous thread first. Samples
  // accumulate into the folded-stack aggregation until ClearSamples().
  Status StartSampling(double hz);
  void StopSampling();
  bool sampling() const { return sampling_.load(std::memory_order_relaxed); }
  double hz() const { return hz_.load(std::memory_order_relaxed); }

  // One-shot burst: sample at `hz` for `duration_ms`, blocking the calling
  // thread (watchdog stall bursts, GET /debug/profile). Runs alongside or
  // instead of the background sampler; samples land in the same aggregation.
  Status SampleFor(int64_t duration_ms, double hz);

  // Sample every registered thread once, right now. Returns the number of
  // non-idle stacks captured. Deterministic test hook + sampler body.
  size_t SampleOnce();

  // --- aggregated output ---
  // Collapsed-stack text, flamegraph.pl-compatible:
  //   process;fused<op0..op2>;decode 42\n
  // sorted by count descending, then lexicographically.
  std::string CollapsedStacks() const;

  // Per-operator CPU attribution: each sample is attributed to its deepest
  // operator frame (labels like "op2-filter" / "fused<op0..op2>"); samples
  // with no operator frame attribute to their leaf frame. Returns
  // label -> sample count.
  std::map<std::string, int64_t> OperatorAttribution() const;

  int64_t TotalSamples() const;
  void ClearSamples();

  // Stop sampling and drop all samples (tests).
  void Reset();

  // True if `label` names a plan operator (op<k>-... or fused<...>).
  static bool IsOperatorLabel(std::string_view label);

 private:
  Profiler() = default;

  void SamplerLoop(double hz);

  std::atomic<bool> sampling_{false};
  std::atomic<double> hz_{0.0};
};

// RAII profiling frame for code that wants attribution without a TraceSpan
// (benchmark harnesses, tests). Interns on construction.
class ProfiledFrame {
 public:
  explicit ProfiledFrame(std::string_view label) {
    Profiler::PushFrame(Profiler::Intern(label));
  }
  ~ProfiledFrame() { Profiler::PopFrame(); }
  ProfiledFrame(const ProfiledFrame&) = delete;
  ProfiledFrame& operator=(const ProfiledFrame&) = delete;
};

// The per-operator CPU attribution table that SHOW PROFILE and EXPLAIN
// ANALYZE print: a header line, then one row per label with its samples and
// its share of `total`, largest share first.
std::string RenderOperatorAttribution(
    const std::map<std::string, int64_t>& attribution, int64_t total);

}  // namespace sqs
