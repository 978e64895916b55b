// Retry with capped exponential backoff + jitter for transient (Unavailable)
// failures on the broker data path. Producers, consumers, changelog stores,
// and the checkpoint manager all share this one implementation so retry
// semantics — what is retryable, how backoff grows, which counters move —
// are identical everywhere (docs/FAULT_TOLERANCE.md).
//
// Only ErrorCode::kUnavailable is retried: every other code is a logic or
// data error that a retry cannot fix and must surface immediately.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <thread>

#include "common/clock.h"
#include "common/config.h"
#include "common/flightrec.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/status.h"

namespace sqs {

// `retry.*` configuration keys (parsed by RetryPolicy::FromConfig). Declared
// here rather than task/api.h because common/ cannot depend on task/.
namespace cfg {
// Total attempts per operation, including the first (1 = no retry).
inline constexpr const char* kRetryMaxAttempts = "retry.max.attempts";
// Initial backoff before the first retry; doubles per retry up to the cap.
inline constexpr const char* kRetryBackoffMs = "retry.backoff.ms";
inline constexpr const char* kRetryBackoffMaxMs = "retry.backoff.max.ms";
// Total elapsed wall-time budget per operation in milliseconds (0 = no
// deadline). Attempt-count budgets bound work; during a broker cold restart
// the relevant bound is time — a caller must give up before its own SLO
// burns, no matter how many cheap attempts fit in the window.
inline constexpr const char* kRetryDeadlineMs = "retry.deadline.ms";
}  // namespace cfg

struct RetryPolicy {
  int32_t max_attempts = 1;  // 1 = retries disabled
  int64_t backoff_ms = 10;
  int64_t backoff_max_ms = 1000;
  int64_t deadline_ms = 0;  // 0 = unbounded elapsed time

  static RetryPolicy FromConfig(const Config& config) {
    RetryPolicy p;
    p.max_attempts =
        static_cast<int32_t>(config.GetInt(cfg::kRetryMaxAttempts, 1));
    p.backoff_ms = config.GetInt(cfg::kRetryBackoffMs, 10);
    p.backoff_max_ms = config.GetInt(cfg::kRetryBackoffMaxMs, 1000);
    p.deadline_ms = config.GetInt(cfg::kRetryDeadlineMs, 0);
    if (p.max_attempts < 1) p.max_attempts = 1;
    if (p.backoff_ms < 0) p.backoff_ms = 0;
    if (p.backoff_max_ms < p.backoff_ms) p.backoff_max_ms = p.backoff_ms;
    if (p.deadline_ms < 0) p.deadline_ms = 0;
    return p;
  }

  bool enabled() const { return max_attempts > 1; }
};

// Runs operations under a RetryPolicy. Sleeping uses real wall time
// (std::this_thread::sleep_for), never the injectable Clock: backoff must
// elapse even under ManualClock, and tests simply configure ~1ms backoffs.
class Retrier {
 public:
  Retrier() = default;
  explicit Retrier(RetryPolicy policy) : policy_(policy) {}
  // Seeds the backoff jitter from `scope`, the retrier's metrics scope
  // (`<job>.container<N>.retry.<op>`), so retriers of different containers
  // draw different jitter sequences.
  Retrier(RetryPolicy policy, std::string_view scope)
      : policy_(policy), jitter_state_(Fnv1a64(scope)) {}

  // A copy (same policy and counters) that draws its own jitter sequence,
  // seeded from `scope`: per-task copies of a container's retrier, so tasks
  // that fail together do not retry in lockstep.
  Retrier Reseeded(std::string_view scope) const {
    Retrier copy = *this;
    copy.jitter_state_ = Fnv1a64(scope);
    return copy;
  }

  void SetPolicy(RetryPolicy policy) { policy_ = policy; }
  const RetryPolicy& policy() const { return policy_; }

  // Optional counters: `retries` increments once per re-attempt, `giveups`
  // once per operation that exhausts its attempt budget, `giveup_deadline`
  // once per operation that gives up because its elapsed-time budget
  // (retry.deadline.ms) ran out with attempts still remaining.
  void BindMetrics(Counter* retries, Counter* giveups,
                   Counter* giveup_deadline = nullptr) {
    retries_ = retries;
    giveups_ = giveups;
    giveup_deadline_ = giveup_deadline;
  }

  // fn: () -> Status. Retries while fn returns Unavailable and both budgets
  // (attempts, elapsed wall time) remain; any other status (or Ok) is
  // returned as-is immediately. The deadline is checked after each failed
  // attempt: an in-flight fn() is never interrupted, so one attempt can
  // overshoot the budget, but no backoff sleep starts past it.
  template <typename Fn>
  Status Run(Fn&& fn) {
    int64_t backoff = policy_.backoff_ms;
    const int64_t deadline_ns =
        policy_.deadline_ms > 0
            ? MonotonicNanos() + policy_.deadline_ms * 1'000'000
            : 0;
    for (int32_t attempt = 1;; ++attempt) {
      Status st = fn();
      if (st.ok() || st.code() != ErrorCode::kUnavailable) return st;
      if (attempt >= policy_.max_attempts) {
        if (giveups_ != nullptr) giveups_->Inc();
        FlightRecorder::Record(FlightEventType::kRetryGiveup, "retry",
                               st.ToString(), attempt);
        return st;
      }
      if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
        if (giveup_deadline_ != nullptr) giveup_deadline_->Inc();
        FlightRecorder::Record(FlightEventType::kRetryGiveup, "retry.deadline",
                               st.ToString(), attempt, policy_.deadline_ms);
        return st;
      }
      if (retries_ != nullptr) retries_->Inc();
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(JitteredMs(backoff)));
      }
      backoff = std::min(backoff * 2, policy_.backoff_max_ms);
    }
  }

  // Full-jitter-lite: the next backoff draw, uniform in [backoff/2, backoff],
  // so simultaneously-failing containers don't retry in lockstep.
  int64_t JitteredMs(int64_t backoff_ms) {
    jitter_state_ = jitter_state_ * 6364136223846793005ull + 1442695040888963407ull;
    int64_t half = backoff_ms / 2;
    int64_t span = backoff_ms - half + 1;
    return half + static_cast<int64_t>((jitter_state_ >> 33) %
                                       static_cast<uint64_t>(span));
  }

 private:
  RetryPolicy policy_;
  Counter* retries_ = nullptr;
  Counter* giveups_ = nullptr;
  Counter* giveup_deadline_ = nullptr;
  uint64_t jitter_state_ = 0x853c49e6748fea9bull;
};

}  // namespace sqs
