// Always-on flight recorder: a lock-free-per-thread bounded ring of
// structured engine events (container state transitions, commits,
// checkpoint publishes, supervisor restarts, fencing, DLQ drops, retry
// giveups, batch-run boundaries) kept cheap enough to leave on in
// production. When the process wedges or dies, the last N events per
// thread explain what the engine was doing.
//
// Design: each writer thread owns one ring; a slot is a seqlock (odd
// version = write in progress, readers retry/skip), so writers never block
// and a concurrent snapshot can never observe a half-written record — torn
// slots are detected by the version check and skipped. Events carry a
// global sequence number (one relaxed fetch_add) so a merged dump is
// totally ordered. Eviction is counted per ring (`dropped`).
//
// Dumps are JSON lines: on demand (GET /debug/events, SHOW EVENTS), on
// supervisor-observed container death, and from the fatal-signal /
// std::terminate crash path (`flightrec.dump.path`), which first runs the
// registered crash-flush hooks (structured logger, metrics reporters) so
// the tail of those files survives the crash. See docs/PROFILING.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sqs {

enum class FlightEventType : uint8_t {
  kContainerStart = 0,
  kContainerStop,
  kContainerCrash,
  kSupervisorRestart,
  kCommit,
  kCheckpoint,
  kBatchRun,
  kDlqDrop,
  kRetryGiveup,
  kFenced,
  kJobSubmit,
  kPlanBuilt,
  kStall,
  kStallCleared,
  kCrashDump,
  kSloBreach,
  kSloCleared,
  kSegmentRoll,
  kFsync,
  kRecoveryTruncation,
  kAlertFiring,
  kAlertResolved,
};

// Stable lowercase identifier ("commit", "batch_run", ...), used in dumps.
const char* FlightEventTypeName(FlightEventType type);

// POD event record. Fixed-size char payloads (NUL-terminated, truncated on
// overflow) keep slots copyable without allocation, which the seqlock and
// the async-signal dump path both rely on.
struct FlightEvent {
  int64_t ts_ms = 0;    // wall clock
  int64_t mono_ns = 0;  // monotonic timestamp
  uint64_t seq = 0;     // global publish order (dump sort key)
  int32_t thread = 0;   // ring ordinal of the writing thread
  FlightEventType type = FlightEventType::kContainerStart;
  int64_t a = 0;  // small numeric payloads (count, offset, attempt, ...)
  int64_t b = 0;
  char scope[48] = {};   // where: "<job>.container<id>", "<job>.<task>", ...
  char detail[96] = {};  // free-form context (error message, label, ...)
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultRingEvents = 256;

  static FlightRecorder& Instance();

  // Record an event on the calling thread's ring. Never blocks, never
  // allocates after the ring exists. No-op while disabled.
  static void Record(FlightEventType type, std::string_view scope,
                     std::string_view detail = {}, int64_t a = 0, int64_t b = 0);

  // Recording toggle (`flightrec.enable`, default on).
  void SetEnabled(bool enabled);
  bool enabled() const;

  // Per-thread ring capacity (default kDefaultRingEvents). Applies to rings
  // created after the call; existing rings keep their size.
  void SetRingCapacity(size_t events);
  size_t ring_capacity() const;

  // Merged consistent copy of every ring, sorted by seq (oldest first).
  // `scope_prefix` filters (empty = all).
  std::vector<FlightEvent> Snapshot(std::string_view scope_prefix = {}) const;

  // JSON-lines dump: one meta line ({"flightrec":...,"dropped":N}) followed
  // by one object per event, seq-ordered.
  std::string DumpJsonLines(std::string_view scope_prefix = {}) const;

  // Best-effort async-signal dump: fixed buffers + write(2), no allocation,
  // ring order (not seq-sorted; each line carries "seq" for offline sort).
  void DumpToFd(int fd) const;

  // DumpJsonLines to a file; returns false if the file cannot be written.
  bool DumpToPath(const std::string& path, std::string_view scope_prefix = {}) const;

  // Events evicted by ring wrap-around, across all rings.
  int64_t dropped() const;
  // Events recorded since process start (survives Clear()).
  int64_t recorded() const;

  // Drop all buffered events (tests).
  void Clear();

 private:
  FlightRecorder() = default;
};

// --- crash forensics -------------------------------------------------------

// Where the fatal-signal/terminate handlers write the flight-recorder dump
// (`flightrec.dump.path`); empty = no automatic dump file.
void SetCrashDumpPath(std::string_view path);
const char* CrashDumpPath();

// Install SIGSEGV/SIGABRT/SIGBUS/SIGILL/SIGFPE handlers and a
// std::terminate hook that flush registered sinks and write the flight
// recorder dump before re-raising. Idempotent.
void InstallCrashHandlers();

// Crash-flush registry: hooks that persist buffered observability state
// (metrics reporters, the structured logger) before the dump is written.
// `arg` identifies the registration for UnregisterCrashFlush.
using CrashFlushFn = void (*)(void* arg);
void RegisterCrashFlush(CrashFlushFn fn, void* arg);
void UnregisterCrashFlush(void* arg);

// Flush the structured logger plus every registered hook, then write the
// dump to CrashDumpPath() (if set), recording a kCrashDump event first.
// Returns true if a dump file was written. Public so the terminate hook,
// the supervisor, and tests share one code path.
bool WriteCrashDump(const char* reason);

}  // namespace sqs
