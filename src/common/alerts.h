// AlertEngine: the one breach/clear state machine of a SamzaSQL deployment.
// Declarative threshold rules over metrics snapshots and the metrics history
// ring. User rules come from the `alert.rules` config key as a ';'-separated
// list:
//
//   alert.rules=consumer_lag>10000 for 5s; dropped rate>0; watermark_lag_ms>60000 for 2s
//
// Rule grammar (whitespace-insensitive around operators):
//
//   rule     := selector ["rate"] op number ["for" duration]
//   selector := "consumer_lag"            max over per-partition lag gauges
//             | <metric leaf or suffix>   matched against dotted metric names
//   op       := ">" | ">=" | "<" | "<="
//   duration := <int> ("ms" | "s" | "m")
//
// "rate" compares the per-second rate of matching counters from the history
// ring instead of the level (e.g. `dropped rate>0` fires while any operator
// is actively dropping tuples). A rule's condition must hold for `for`
// (default 0) before it transitions pending -> firing; when the condition
// clears, a firing alert resolves and returns to inactive. Evaluate() is
// driven by the monitor's ticks, so alert timing is deterministic under an
// injected clock.
//
// Every pending -> firing and firing -> resolved change goes through one
// transition function: a structured log line, the rule's counter and one
// flight-recorder event (scope = the subject, detail = the rule text,
// a = value, b = threshold). The monitor adds its built-in rules here too:
// the latency SLO and the stall watchdog (docs/MONITORING.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/flightrec.h"
#include "common/history.h"
#include "common/metrics.h"
#include "common/status.h"

namespace sqs {

// How the series a rule matches split into independently tracked subjects.
enum class AlertGroup {
  kRule,       // one state per rule, driven by the worst matching series
  kJob,        // one state per `<job>` of `<job>.container<N>.<leaf>`
  kContainer,  // one state per `<job>.container<N>`
};

struct AlertRule {
  std::string selector;     // metric leaf/suffix or "consumer_lag"
  bool rate = false;        // compare history rate instead of the level
  std::string op = ">";     // ">", ">=", "<", "<="
  double threshold = 0;
  int64_t for_ms = 0;       // how long the condition must hold before firing
  std::string text;         // canonical rule text (used as the alert name)

  // Set only by the monitor for its built-in rules; `alert.rules` rules keep
  // these defaults.
  AlertGroup group = AlertGroup::kRule;
  FlightEventType fire_event = FlightEventType::kAlertFiring;
  FlightEventType resolve_event = FlightEventType::kAlertResolved;
  Counter* fired_counter = nullptr;  // bumped on every pending -> firing
  // Runs once per pending -> firing, after the engine's lock is released
  // (the stall's profile burst and dump).
  std::function<void()> on_fire;
};

enum class AlertState { kInactive, kPending, kFiring };
const char* AlertStateName(AlertState state);

// Does the dotted metric `name` belong to `selector`? The whole name, a
// dotted suffix, or — for "consumer_lag" — any per-partition lag gauge.
bool AlertSelectorMatches(const std::string& selector, const std::string& name);

// One row per rule. A grouped rule reports its most advanced subject.
struct AlertStatus {
  AlertRule rule;
  AlertState state = AlertState::kInactive;
  int64_t since_ms = 0;      // when the condition started holding
  double value = 0;          // last evaluated value
  std::string subject;       // metric name (or group) that produced the value
  int64_t fired_count = 0;   // lifetime pending->firing transitions
  std::vector<std::string> firing;  // subjects currently firing
};

class AlertEngine {
 public:
  AlertEngine() = default;
  explicit AlertEngine(std::vector<AlertRule> rules);

  // Parse an `alert.rules` config value. Empty input yields no rules.
  static Result<std::vector<AlertRule>> ParseRules(const std::string& spec);

  // Evaluate every rule against one snapshot at `now_ms`; `history` supplies
  // rates for `rate` rules (may be null: rate rules then read 0). Safe to
  // call from several threads; callers that do must hand in snapshots in the
  // order they were taken, or a stale one reports a transition again.
  void Evaluate(int64_t now_ms, const MetricsSnapshot& snapshot,
                const MetricsHistory* history);

  std::vector<AlertStatus> Statuses() const;
  int64_t FiringCount() const;
  bool empty() const { return entries_.empty(); }
  size_t num_rules() const { return entries_.size(); }

  // {"firing":N,"alerts":[{"rule":...,"state":...,...},...]}
  std::string ToJson(int64_t now_ms) const;

 private:
  // Breach/clear state of one subject.
  struct Track {
    AlertState state = AlertState::kInactive;
    int64_t since_ms = 0;
    double value = 0;
    std::string subject;
  };
  struct Entry {
    AlertRule rule;
    std::map<std::string, Track> tracks;  // by group key ("" for kRule)
    int64_t fired_count = 0;
  };
  // Advance one subject's state; a rule that fires with an action is
  // appended to `fired`.
  void Step(Entry& entry, Track& track, bool holds, int64_t now_ms,
            std::vector<const AlertRule*>* fired);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace sqs
