#include "common/alerts.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/json_escape.h"
#include "common/logging.h"

namespace sqs {

namespace {

std::string Trim(const std::string& s) {
  size_t start = s.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(start, end - start + 1);
}

bool Compare(double value, const std::string& op, double threshold) {
  if (op == ">") return value > threshold;
  if (op == ">=") return value >= threshold;
  if (op == "<") return value < threshold;
  return value <= threshold;  // "<="
}

Result<int64_t> ParseDuration(const std::string& raw) {
  char* end = nullptr;
  long long n = std::strtoll(raw.c_str(), &end, 10);
  std::string unit = Trim(end);
  if (end == raw.c_str() || n < 0) {
    return Status::ParseError("alert rule: bad duration '" + raw + "'");
  }
  if (unit == "ms") return static_cast<int64_t>(n);
  if (unit == "s") return static_cast<int64_t>(n) * 1000;
  if (unit == "m") return static_cast<int64_t>(n) * 60'000;
  return Status::ParseError("alert rule: bad duration unit '" + raw +
                            "' (use ms, s, or m)");
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Is `a` further into breach than `b`? Larger for '>' rules, smaller for
// '<' rules, so one breaching series is enough to trip the alert.
bool Worse(const AlertRule& rule, double a, double b) {
  return rule.op[0] == '>' ? a > b : a < b;
}

// The subject a matching series belongs to: "" for an ungrouped rule,
// otherwise the `<job>.container<N>` scope of `<job>.container<N>.<leaf>`
// or its `<job>`.
std::string SubjectKey(AlertGroup group, const std::string& name) {
  if (group == AlertGroup::kRule) return "";
  std::string scope = name.substr(0, name.rfind('.'));
  return group == AlertGroup::kContainer ? scope : scope.substr(0, scope.rfind('.'));
}

// The worst matching series of a rule, per subject. A selector that
// matches nothing never trips (otherwise every '<' rule would fire on jobs
// that have not minted the metric yet).
struct Reading {
  bool found = false;
  double value = 0;
  std::string name;
};

std::map<std::string, Reading> ReadRule(const AlertRule& rule,
                                        const MetricsSnapshot& snapshot,
                                        const MetricsHistory* history) {
  std::map<std::string, Reading> readings;
  auto consider = [&](const std::string& name, double v) {
    Reading& r = readings[SubjectKey(rule.group, name)];
    if (!r.found || Worse(rule, v, r.value)) r = Reading{true, v, name};
  };
  if (rule.rate) {
    if (history == nullptr) return readings;
    for (const auto& [name, v] : snapshot.counters) {
      (void)v;
      if (AlertSelectorMatches(rule.selector, name)) {
        consider(name, history->RatePerSec(name));
      }
    }
    return readings;
  }
  for (const auto& [name, v] : snapshot.gauges) {
    if (AlertSelectorMatches(rule.selector, name)) consider(name, static_cast<double>(v));
  }
  for (const auto& [name, v] : snapshot.counters) {
    if (AlertSelectorMatches(rule.selector, name)) consider(name, static_cast<double>(v));
  }
  return readings;
}

// The one place a transition is reported: a structured log line, the rule's
// counter and one flight-recorder event with (a, b) = (value, threshold).
void Report(const AlertRule& rule, const std::string& subject, double value,
            bool firing, int64_t held_ms) {
  FlightRecorder::Record(firing ? rule.fire_event : rule.resolve_event, subject,
                         rule.text, static_cast<int64_t>(value),
                         static_cast<int64_t>(rule.threshold));
  if (!firing) {
    SQS_INFOC("alerts", "alert resolved", {"rule", rule.text},
              {"value", FormatValue(value)}, {"subject", subject});
    return;
  }
  if (rule.fired_counter != nullptr) rule.fired_counter->Inc();
  SQS_WARNC("alerts", "alert firing", {"rule", rule.text},
            {"value", FormatValue(value)}, {"subject", subject},
            {"held_ms", std::to_string(held_ms)});
}

}  // namespace

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "?";
}

bool AlertSelectorMatches(const std::string& selector, const std::string& name) {
  // Lag gauges are `<scope>.lag.<topic>.<partition>`.
  if (selector == "consumer_lag") return name.find(".lag.") != std::string::npos;
  if (name == selector) return true;
  return name.size() > selector.size() + 1 &&
         name.compare(name.size() - selector.size() - 1, 1, ".") == 0 &&
         name.compare(name.size() - selector.size(), selector.size(), selector) == 0;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules) {
  entries_.reserve(rules.size());
  for (AlertRule& rule : rules) {
    Entry entry;
    entry.rule = std::move(rule);
    // An ungrouped rule has its one row before the first evaluation.
    if (entry.rule.group == AlertGroup::kRule) entry.tracks[""];
    entries_.push_back(std::move(entry));
  }
}

Result<std::vector<AlertRule>> AlertEngine::ParseRules(const std::string& spec) {
  std::vector<AlertRule> rules;
  std::stringstream ss(spec);
  std::string piece;
  while (std::getline(ss, piece, ';')) {
    std::string rule_text = Trim(piece);
    if (rule_text.empty()) continue;

    // Find the comparator (the first '<' or '>').
    size_t op_pos = rule_text.find_first_of("<>");
    if (op_pos == std::string::npos || op_pos == 0) {
      return Status::ParseError("alert rule missing comparator: '" + rule_text +
                                "'");
    }
    AlertRule rule;
    rule.op = rule_text.substr(op_pos, 1);
    size_t rhs_pos = op_pos + 1;
    if (rhs_pos < rule_text.size() && rule_text[rhs_pos] == '=') {
      rule.op += '=';
      ++rhs_pos;
    }

    // Left side: selector, optionally followed by the "rate" keyword.
    std::istringstream lhs(rule_text.substr(0, op_pos));
    std::string word, extra;
    lhs >> rule.selector >> word >> extra;
    if (!extra.empty()) {
      return Status::ParseError("alert rule: unexpected '" + extra + "' in '" +
                                rule_text + "'");
    }
    if (word == "rate") {
      rule.rate = true;
    } else if (!word.empty()) {
      return Status::ParseError("alert rule: unexpected '" + word + "' in '" +
                                rule_text + "' (only 'rate' may follow the metric)");
    }
    if (rule.selector.empty()) {
      return Status::ParseError("alert rule missing metric: '" + rule_text + "'");
    }

    // Right side: threshold, optionally "for <duration>".
    std::string rhs = Trim(rule_text.substr(rhs_pos));
    size_t for_pos = rhs.find("for ");
    std::string number = Trim(for_pos == std::string::npos ? rhs : rhs.substr(0, for_pos));
    char* end = nullptr;
    rule.threshold = std::strtod(number.c_str(), &end);
    if (number.empty() || end != number.c_str() + number.size()) {
      return Status::ParseError("alert rule: bad threshold '" + number +
                                "' in '" + rule_text + "'");
    }
    if (for_pos != std::string::npos) {
      SQS_ASSIGN_OR_RETURN(for_ms, ParseDuration(Trim(rhs.substr(for_pos + 4))));
      rule.for_ms = for_ms;
    }

    std::ostringstream canon;
    canon << rule.selector << (rule.rate ? " rate" : "") << rule.op
          << FormatValue(rule.threshold);
    if (rule.for_ms > 0) canon << " for " << rule.for_ms << "ms";
    rule.text = canon.str();
    rules.push_back(std::move(rule));
  }
  return rules;
}

void AlertEngine::Step(Entry& entry, Track& track, bool holds, int64_t now_ms,
                       std::vector<const AlertRule*>* fired) {
  const AlertRule& rule = entry.rule;
  if (!holds) {
    if (track.state == AlertState::kFiring) {
      Report(rule, track.subject, track.value, false, 0);
    }
    track.state = AlertState::kInactive;
    track.since_ms = 0;
    return;
  }
  if (track.state == AlertState::kInactive) {
    track.state = AlertState::kPending;
    track.since_ms = now_ms;
    SQS_DEBUGC("alerts", "alert pending", {"rule", rule.text},
               {"value", FormatValue(track.value)}, {"subject", track.subject});
  }
  if (track.state == AlertState::kPending &&
      now_ms - track.since_ms >= rule.for_ms) {
    track.state = AlertState::kFiring;
    ++entry.fired_count;
    Report(rule, track.subject, track.value, true, now_ms - track.since_ms);
    if (rule.on_fire) fired->push_back(&rule);
  }
}

void AlertEngine::Evaluate(int64_t now_ms, const MetricsSnapshot& snapshot,
                           const MetricsHistory* history) {
  std::vector<const AlertRule*> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& entry : entries_) {
      std::map<std::string, Reading> readings =
          ReadRule(entry.rule, snapshot, history);
      // A subject none of whose series matched this time reads as clear.
      for (const auto& [key, track] : entry.tracks) {
        (void)track;
        readings.try_emplace(key);
      }
      for (const auto& [key, reading] : readings) {
        Track& track = entry.tracks[key];
        track.value = reading.value;
        if (reading.found) {
          track.subject = entry.rule.group == AlertGroup::kRule ? reading.name : key;
        }
        const bool holds = reading.found &&
                           Compare(reading.value, entry.rule.op, entry.rule.threshold);
        Step(entry, track, holds, now_ms, &fired);
      }
    }
  }
  // Rules are never added after construction, so the pointers stay valid.
  for (const AlertRule* rule : fired) rule->on_fire();
}

std::vector<AlertStatus> AlertEngine::Statuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    AlertStatus status;
    status.rule = entry.rule;
    status.fired_count = entry.fired_count;
    const Track* lead = nullptr;
    for (const auto& [key, track] : entry.tracks) {
      (void)key;
      if (track.state == AlertState::kFiring) status.firing.push_back(track.subject);
      if (lead == nullptr || track.state > lead->state ||
          (track.state == lead->state && Worse(entry.rule, track.value, lead->value))) {
        lead = &track;
      }
    }
    if (lead != nullptr) {
      status.state = lead->state;
      status.since_ms = lead->since_ms;
      status.value = lead->value;
      status.subject = lead->subject;
    }
    out.push_back(std::move(status));
  }
  return out;
}

int64_t AlertEngine::FiringCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const Entry& entry : entries_) {
    n += std::any_of(entry.tracks.begin(), entry.tracks.end(), [](const auto& kv) {
      return kv.second.state == AlertState::kFiring;
    });
  }
  return n;
}

std::string AlertEngine::ToJson(int64_t now_ms) const {
  std::vector<AlertStatus> statuses = Statuses();
  std::ostringstream os;
  os << "{\"ts_ms\":" << now_ms << ",\"firing\":" << FiringCount()
     << ",\"alerts\":[";
  for (size_t i = 0; i < statuses.size(); ++i) {
    const AlertStatus& s = statuses[i];
    if (i) os << ",";
    os << "{\"rule\":\"" << JsonEscape(s.rule.text) << "\",\"state\":\""
       << AlertStateName(s.state) << "\",\"value\":" << FormatValue(s.value)
       << ",\"subject\":\"" << JsonEscape(s.subject)
       << "\",\"since_ms\":" << s.since_ms
       << ",\"fired_count\":" << s.fired_count << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace sqs
