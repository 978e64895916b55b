#include "common/flightrec.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "common/clock.h"
#include "common/json_escape.h"
#include "common/logging.h"

namespace sqs {

namespace {

// ---------------------------------------------------------------------------
// Per-thread rings with per-slot seqlocks. One writer per ring (the owning
// thread); readers (snapshot/dump) validate the slot version before and
// after copying and skip torn slots. Ring objects are leaked so a snapshot
// or crash dump can never race a thread's exit.
// ---------------------------------------------------------------------------

// The payload is stored as relaxed atomic words so a reader copying a slot
// while its writer overwrites it is a detected torn read, not a data race.
constexpr size_t kSlotWords = (sizeof(FlightEvent) + 7) / 8;
static_assert(std::is_trivially_copyable_v<FlightEvent>);

struct Slot {
  std::atomic<uint64_t> version{0};  // odd = write in progress
  std::atomic<uint64_t> words[kSlotWords] = {};
};

// Writer side: odd version, release fence, payload, even version.
void StoreSlot(Slot& slot, const FlightEvent& ev) {
  uint64_t buf[kSlotWords] = {};
  std::memcpy(buf, &ev, sizeof(FlightEvent));
  const uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < kSlotWords; ++i) {
    slot.words[i].store(buf[i], std::memory_order_relaxed);
  }
  slot.version.store(v + 2, std::memory_order_release);
}

// Reader side: false when the slot is being written or was overwritten
// during the copy (torn). Allocation-free, so the signal dump can use it.
bool LoadSlot(const Slot& slot, FlightEvent* out) {
  const uint64_t v1 = slot.version.load(std::memory_order_acquire);
  if (v1 & 1) return false;
  uint64_t buf[kSlotWords];
  for (size_t i = 0; i < kSlotWords; ++i) {
    buf[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.version.load(std::memory_order_relaxed) != v1) return false;
  std::memcpy(out, buf, sizeof(FlightEvent));
  return true;
}

struct Ring {
  explicit Ring(size_t capacity, int32_t ord)
      : slots(capacity), ordinal(ord) {}
  std::vector<Slot> slots;
  uint64_t next = 0;  // writer-only event index
  std::atomic<uint64_t> written{0};
  std::atomic<bool> live{true};
  int32_t ordinal = 0;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
};

RingRegistry& ring_registry() {
  static auto* r = new RingRegistry;
  return *r;
}

std::atomic<bool> g_enabled{true};
std::atomic<size_t> g_ring_capacity{FlightRecorder::kDefaultRingEvents};
std::atomic<uint64_t> g_seq{0};
std::atomic<int64_t> g_recorded{0};

Ring* CurrentRing() {
  thread_local struct Handle {
    Ring* ring = nullptr;
    Handle() {
      size_t cap = g_ring_capacity.load(std::memory_order_relaxed);
      if (cap < 8) cap = 8;
      RingRegistry& r = ring_registry();
      std::lock_guard<std::mutex> lock(r.mu);
      auto owned =
          std::make_unique<Ring>(cap, static_cast<int32_t>(r.rings.size()));
      ring = owned.get();
      r.rings.push_back(std::move(owned));
    }
    ~Handle() { ring->live.store(false, std::memory_order_release); }
  } handle;
  return handle.ring;
}

void CopyTruncated(char* dst, size_t dst_size, std::string_view src) {
  size_t n = std::min(src.size(), dst_size - 1);
  // A default string_view has a null data(); memcpy forbids it even for 0.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// snprintf one event as a JSON line into `buf`. Returns chars written (no
// allocation; used by the async-signal dump path).
int FormatEventLine(const FlightEvent& ev, char* buf, size_t buf_size) {
  // scope/detail are truncated ASCII-ish payloads written by our own call
  // sites; quotes/backslashes are not escaped here (best-effort crash path).
  return std::snprintf(
      buf, buf_size,
      "{\"seq\":%llu,\"ts_ms\":%lld,\"mono_ns\":%lld,\"type\":\"%s\","
      "\"thread\":%d,\"scope\":\"%s\",\"detail\":\"%s\",\"a\":%lld,\"b\":%lld}\n",
      static_cast<unsigned long long>(ev.seq),
      static_cast<long long>(ev.ts_ms), static_cast<long long>(ev.mono_ns),
      FlightEventTypeName(ev.type), ev.thread, ev.scope, ev.detail,
      static_cast<long long>(ev.a), static_cast<long long>(ev.b));
}

bool HasPrefix(const char* s, std::string_view prefix) {
  return prefix.empty() || std::string_view(s).substr(0, prefix.size()) == prefix;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kContainerStart: return "container_start";
    case FlightEventType::kContainerStop: return "container_stop";
    case FlightEventType::kContainerCrash: return "container_crash";
    case FlightEventType::kSupervisorRestart: return "supervisor_restart";
    case FlightEventType::kCommit: return "commit";
    case FlightEventType::kCheckpoint: return "checkpoint";
    case FlightEventType::kBatchRun: return "batch_run";
    case FlightEventType::kDlqDrop: return "dlq_drop";
    case FlightEventType::kRetryGiveup: return "retry_giveup";
    case FlightEventType::kFenced: return "fenced";
    case FlightEventType::kJobSubmit: return "job_submit";
    case FlightEventType::kPlanBuilt: return "plan_built";
    case FlightEventType::kStall: return "stall";
    case FlightEventType::kStallCleared: return "stall_cleared";
    case FlightEventType::kCrashDump: return "crash_dump";
    case FlightEventType::kSloBreach: return "slo_breach";
    case FlightEventType::kSloCleared: return "slo_cleared";
    case FlightEventType::kSegmentRoll: return "segment_roll";
    case FlightEventType::kFsync: return "fsync";
    case FlightEventType::kRecoveryTruncation: return "recovery_truncation";
    case FlightEventType::kAlertFiring: return "alert_firing";
    case FlightEventType::kAlertResolved: return "alert_resolved";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = new FlightRecorder;
  return *recorder;
}

void FlightRecorder::Record(FlightEventType type, std::string_view scope,
                            std::string_view detail, int64_t a, int64_t b) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Ring* ring = CurrentRing();
  Slot& slot = ring->slots[ring->next % ring->slots.size()];
  FlightEvent ev;
  ev.ts_ms = SystemClock::Instance()->NowMillis();
  ev.mono_ns = MonotonicNanos();
  ev.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  ev.thread = ring->ordinal;
  ev.type = type;
  ev.a = a;
  ev.b = b;
  CopyTruncated(ev.scope, sizeof(ev.scope), scope);
  CopyTruncated(ev.detail, sizeof(ev.detail), detail);
  StoreSlot(slot, ev);
  ring->next++;
  ring->written.store(ring->next, std::memory_order_release);
  g_recorded.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void FlightRecorder::SetRingCapacity(size_t events) {
  if (events < 8) events = 8;
  g_ring_capacity.store(events, std::memory_order_relaxed);
}

size_t FlightRecorder::ring_capacity() const {
  return g_ring_capacity.load(std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::Snapshot(
    std::string_view scope_prefix) const {
  std::vector<FlightEvent> out;
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    const size_t cap = ring->slots.size();
    const uint64_t w = ring->written.load(std::memory_order_acquire);
    const uint64_t start = w > cap ? w - cap : 0;
    for (uint64_t i = start; i < w; ++i) {
      FlightEvent copy;
      if (!LoadSlot(ring->slots[i % cap], &copy)) continue;  // in progress or torn
      if (!HasPrefix(copy.scope, scope_prefix)) continue;
      out.push_back(copy);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  return out;
}

std::string FlightRecorder::DumpJsonLines(std::string_view scope_prefix) const {
  std::vector<FlightEvent> events = Snapshot(scope_prefix);
  std::ostringstream os;
  os << "{\"flightrec\":\"samzasql\",\"events\":" << events.size()
     << ",\"dropped\":" << dropped() << ",\"recorded\":" << recorded() << "}\n";
  for (const FlightEvent& ev : events) {
    os << "{\"seq\":" << ev.seq << ",\"ts_ms\":" << ev.ts_ms
       << ",\"mono_ns\":" << ev.mono_ns << ",\"type\":\""
       << FlightEventTypeName(ev.type) << "\",\"thread\":" << ev.thread
       << ",\"scope\":\"";
    os << JsonEscape(ev.scope);
    os << "\",\"detail\":\"";
    os << JsonEscape(ev.detail);
    os << "\",\"a\":" << ev.a << ",\"b\":" << ev.b << "}\n";
  }
  return os.str();
}

void FlightRecorder::DumpToFd(int fd) const {
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"flightrec\":\"samzasql\",\"dropped\":%lld}\n",
                        static_cast<long long>(dropped()));
  if (n > 0) {
    ssize_t ignored = write(fd, buf, static_cast<size_t>(n));
    (void)ignored;
  }
  // Ring order, not seq order: sorting needs allocation, which the
  // fatal-signal path cannot afford. Lines carry "seq" for offline sorting.
  RingRegistry& r = ring_registry();
  // The registry mutex is only taken by thread creation; on the crash path
  // a deadlock here would suppress the dump, so rely on creation being rare
  // and brief and take it (best effort: a crash *inside* registration loses
  // the dump, nothing worse).
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    const size_t cap = ring->slots.size();
    const uint64_t w = ring->written.load(std::memory_order_acquire);
    const uint64_t start = w > cap ? w - cap : 0;
    for (uint64_t i = start; i < w; ++i) {
      FlightEvent copy;
      if (!LoadSlot(ring->slots[i % cap], &copy)) continue;
      n = FormatEventLine(copy, buf, sizeof(buf));
      if (n > 0) {
        ssize_t ignored = write(fd, buf, static_cast<size_t>(n));
        (void)ignored;
      }
    }
  }
}

bool FlightRecorder::DumpToPath(const std::string& path,
                                std::string_view scope_prefix) const {
  // POSIX I/O rather than ofstream so the dump can be fsynced: this path
  // runs from std::terminate and shutdown forensics, where the process (or
  // machine) may die immediately after — the dump must be durable, not
  // merely buffered.
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::string body = DumpJsonLines(scope_prefix);
  size_t off = 0;
  while (off < body.size()) {
    ssize_t n = write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  bool synced = fsync(fd) == 0;
  close(fd);
  return synced;
}

int64_t FlightRecorder::dropped() const {
  int64_t total = 0;
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    uint64_t w = ring->written.load(std::memory_order_acquire);
    uint64_t cap = ring->slots.size();
    if (w > cap) total += static_cast<int64_t>(w - cap);
  }
  return total;
}

int64_t FlightRecorder::recorded() const {
  return g_recorded.load(std::memory_order_relaxed);
}

void FlightRecorder::Clear() {
  RingRegistry& r = ring_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& ring : r.rings) {
    // Only safe against the ring's own writer if that thread is quiescent;
    // tests call Clear() between runs, never concurrently with recording.
    for (Slot& slot : ring->slots) {
      slot.version.store(0, std::memory_order_relaxed);
      for (auto& word : slot.words) word.store(0, std::memory_order_relaxed);
    }
    ring->next = 0;
    ring->written.store(0, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Crash forensics: dump path, flush hooks, signal + terminate handlers.
// ---------------------------------------------------------------------------

namespace {

char g_dump_path[512] = {};
std::mutex g_dump_path_mu;

constexpr size_t kMaxFlushHooks = 16;
struct FlushHook {
  CrashFlushFn fn = nullptr;
  void* arg = nullptr;
};
FlushHook g_flush_hooks[kMaxFlushHooks];
std::mutex g_flush_mu;

std::atomic<bool> g_handlers_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

void RunCrashFlushHooks() {
  Logger::Instance().Flush();
  std::lock_guard<std::mutex> lock(g_flush_mu);
  for (const FlushHook& hook : g_flush_hooks) {
    if (hook.fn != nullptr) hook.fn(hook.arg);
  }
}

// Fatal-signal handler: banner to stderr, best-effort flush, dump, then
// re-raise with the default disposition so the exit status is honest.
// The flush hooks and the dump-path read are not strictly async-signal-safe
// (they may allocate); for a forensics path on an already-dying process
// that trade is deliberate — worst case the dump is lost, never corruption
// of healthy state.
void CrashSignalHandler(int sig) {
  static std::atomic<bool> in_crash{false};
  if (!in_crash.exchange(true)) {
    char banner[96];
    int n = std::snprintf(banner, sizeof(banner),
                          "samzasql: fatal signal %d, writing flight recorder dump\n",
                          sig);
    if (n > 0) {
      ssize_t ignored = write(STDERR_FILENO, banner, static_cast<size_t>(n));
      (void)ignored;
    }
    RunCrashFlushHooks();
    const char* path = CrashDumpPath();
    if (path[0] != '\0') {
      int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FlightRecorder::Instance().DumpToFd(fd);
        // The process dies on the re-raise below without ever returning to
        // code that could flush: without an fsync the dump sits in page
        // cache, and a machine-level crash right after would lose the one
        // artifact explaining it (the same torn-write window the durable
        // log closes for data — docs/DURABILITY.md).
        fsync(fd);
        close(fd);
      }
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void CrashTerminateHandler() {
  WriteCrashDump("std::terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void SetCrashDumpPath(std::string_view path) {
  std::lock_guard<std::mutex> lock(g_dump_path_mu);
  CopyTruncated(g_dump_path, sizeof(g_dump_path), path);
}

const char* CrashDumpPath() { return g_dump_path; }

void RegisterCrashFlush(CrashFlushFn fn, void* arg) {
  std::lock_guard<std::mutex> lock(g_flush_mu);
  for (FlushHook& hook : g_flush_hooks) {
    if (hook.fn == nullptr) {
      hook.fn = fn;
      hook.arg = arg;
      return;
    }
  }
  // Table full: drop the registration; crash flushing is best effort.
}

void UnregisterCrashFlush(void* arg) {
  std::lock_guard<std::mutex> lock(g_flush_mu);
  for (FlushHook& hook : g_flush_hooks) {
    if (hook.arg == arg) {
      hook.fn = nullptr;
      hook.arg = nullptr;
    }
  }
}

bool WriteCrashDump(const char* reason) {
  FlightRecorder::Record(FlightEventType::kCrashDump, "crash", reason);
  RunCrashFlushHooks();
  const char* path = CrashDumpPath();
  if (path[0] == '\0') return false;
  return FlightRecorder::Instance().DumpToPath(path);
}

void InstallCrashHandlers() {
  if (g_handlers_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGILL, SIGFPE}) {
    sigaction(sig, &sa, nullptr);
  }
  g_prev_terminate = std::set_terminate(CrashTerminateHandler);
}

}  // namespace sqs
