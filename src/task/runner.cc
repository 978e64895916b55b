#include "task/runner.h"

#include <chrono>
#include <condition_variable>
#include <set>
#include <thread>
#include <tuple>

#include "common/flightrec.h"
#include "common/logging.h"

namespace sqs {

JobRunner::JobRunner(BrokerPtr broker, Config config, std::shared_ptr<Clock> clock)
    : broker_(std::move(broker)),
      config_(std::move(config)),
      clock_(clock ? std::move(clock) : SystemClock::Instance()),
      metrics_(std::make_shared<MetricsRegistry>()) {}

Status JobRunner::Start() {
  if (started_) return Status::StateError("job already started");
  SQS_ASSIGN_OR_RETURN(model, JobCoordinator::BuildJobModel(config_, *broker_));
  model_ = std::move(model);
  containers_.clear();
  for (const ContainerModel& cm : model_.containers) {
    auto container = std::make_shared<Container>(broker_, config_, cm, clock_, metrics_);
    SQS_RETURN_IF_ERROR(container->Start());
    containers_.push_back(std::move(container));
  }

  restart_max_ = config_.GetInt(cfg::kContainerRestartMax, 0);
  restart_backoff_ms_ = config_.GetInt(cfg::kContainerRestartBackoffMs, 100);
  restart_backoff_max_ms_ =
      config_.GetInt(cfg::kContainerRestartBackoffMaxMs, 10000);
  if (restart_backoff_max_ms_ < restart_backoff_ms_) {
    restart_backoff_max_ms_ = restart_backoff_ms_;
  }
  supervisor_.assign(containers_.size(), SupervisorState{});
  for (auto& s : supervisor_) s.next_backoff_ms = restart_backoff_ms_;
  m_restarts_ = &ScopedMetrics(metrics_.get(), model_.job_name)
                     .Sub("supervisor")
                     .counter("container_restarts");

  started_ = true;
  start_ms_ = clock_->NowMillis();
  return Status::Ok();
}

void JobRunner::RecordCrash(int32_t container_id, const Status& error) {
  SQS_WARNC("supervisor", "container crashed",
            {"job", model_.job_name}, {"id", std::to_string(container_id)},
            {"error", error.ToString()});
  FlightRecorder::Record(
      FlightEventType::kContainerCrash,
      model_.job_name + ".container" + std::to_string(container_id),
      error.ToString());
  {
    std::lock_guard<std::mutex> lock(containers_mu_);
    supervisor_[container_id].last_error = error.ToString();
    // Crash semantics: detach without Stop(), exactly like KillContainer.
    // (A pool worker may still hold a reference; the kill flag stops it.)
    if (containers_[container_id]) containers_[container_id]->RequestKill();
    containers_[container_id].reset();
  }
  // Supervisor-observed death is a forensics moment: persist the last N
  // events (flightrec.dump.path) before the restart overwrites context.
  std::string dump_path = config_.Get(cfg::kFlightRecDumpPath);
  if (!dump_path.empty()) {
    FlightRecorder::Instance().DumpToPath(dump_path);
  }
}

Status JobRunner::SuperviseRestart(int32_t container_id) {
  int64_t backoff_ms;
  int64_t attempt;
  {
    std::lock_guard<std::mutex> lock(containers_mu_);
    SupervisorState& s = supervisor_[container_id];
    if (s.restarts >= restart_max_) {
      FlightRecorder::Record(
          FlightEventType::kSupervisorRestart,
          model_.job_name + ".container" + std::to_string(container_id),
          "restart budget exhausted", s.restarts);
      return Status::Internal(
          "container " + std::to_string(container_id) + " restart budget exhausted (" +
          std::to_string(restart_max_) + " restarts); last error: " + s.last_error);
    }
    backoff_ms = s.next_backoff_ms;
    s.next_backoff_ms = std::min(s.next_backoff_ms * 2, restart_backoff_max_ms_);
    attempt = ++s.restarts;
  }
  // Real wall-clock backoff (not the injectable Clock): a crash loop must
  // slow down even in manual-clock tests, which configure ~1ms here.
  if (backoff_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  if (m_restarts_ != nullptr) m_restarts_->Inc();
  FlightRecorder::Record(
      FlightEventType::kSupervisorRestart,
      model_.job_name + ".container" + std::to_string(container_id), "",
      attempt, backoff_ms);
  SQS_WARNC("supervisor", "restarting container",
            {"job", model_.job_name}, {"id", std::to_string(container_id)},
            {"attempt", std::to_string(attempt)},
            {"backoff_ms", std::to_string(backoff_ms)});
  auto container = std::make_shared<Container>(
      broker_, config_, model_.containers[container_id], clock_, metrics_);
  Status st = container->Start();
  if (!st.ok()) {
    // Attempt consumed; the slot stays dead and the next supervision pass
    // tries again until the budget runs out.
    SQS_WARNC("supervisor", "container restart failed",
              {"job", model_.job_name}, {"id", std::to_string(container_id)},
              {"error", st.ToString()});
    std::lock_guard<std::mutex> lock(containers_mu_);
    supervisor_[container_id].last_error = st.ToString();
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(containers_mu_);
  containers_[container_id] = std::move(container);
  return Status::Ok();
}

Result<int64_t> JobRunner::RunThreadedUntilQuiescent(int threads) {
  if (!started_) return Status::StateError("job not started");
  return RunPipeline({this}, threads);
}

bool JobRunner::SlotHolds(int32_t container_id, const Container* c) const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  return containers_[container_id].get() == c;
}

// Shared state of one RunPipeline call, all guarded by `mu`. Each unit (one
// job's container slot) is in exactly one place: the ready queue, on a
// worker, in the idle set, or dropped (dead and unsupervised).
struct JobRunner::PipelineRun {
  struct Unit {
    JobRunner* job;
    int32_t slot;
    int64_t ready_at = 0;     // deadline of the pending fetch (monotonic ns)
    uint64_t turn_epoch = 0;  // progress epoch when its current turn began
  };
  std::vector<Unit> units;
  bool fifo = false;

  std::mutex mu;
  std::condition_variable cv;
  // (deadline or 0 in FIFO mode, push sequence, unit index).
  std::set<std::tuple<int64_t, uint64_t, size_t>> ready;
  uint64_t pushes = 0;
  std::vector<size_t> idle;  // units whose turn found nothing at `epoch`
  uint64_t epoch = 0;
  size_t running = 0;
  bool done = false;
  int64_t total = 0;
  Status first_error;  // the status the run returns on failure
  Status first_crash;  // the first real container error (crash provenance)

  void Push(size_t u) { ready.emplace(fifo ? 0 : units[u].ready_at, pushes++, u); }

  // Progress or a supervisor action: every idle unit is owed one more turn.
  void Bump() {
    ++epoch;
    for (size_t u : idle) Push(u);
    idle.clear();
  }

  // Record the failure that ends the run. If a supervised crash was seen
  // earlier and `st` (e.g. a budget-exhaustion message) does not already
  // carry it, append it — the first real error must never be masked by a
  // generic wrapper.
  void FailWith(Status st) {
    if (first_error.ok()) {
      if (!first_crash.ok() &&
          st.message().find(first_crash.message()) == std::string::npos) {
        st = Status(st.code(),
                    st.message() + "; first error: " + first_crash.ToString());
      }
      first_error = std::move(st);
    }
    done = true;
  }

  // One turn of unit `u` (or one supervision pass if its slot is dead),
  // called without `mu`; returns with `lock` held and the outcome applied.
  void RunUnit(size_t u, std::unique_lock<std::mutex>& lock) {
    Unit& unit = units[u];
    JobRunner* job = unit.job;
    std::shared_ptr<Container> c = job->container(unit.slot);
    if (!c) {
      // Killed and unsupervised: the slot stays dead and leaves the run.
      if (!job->Supervised()) {
        lock.lock();
        return;
      }
      Status st = job->SuperviseRestart(unit.slot);
      lock.lock();
      // Budget exhausted: the status carries the slot's last real error.
      if (!st.ok()) return FailWith(st);
      // Restarted (or the restart failed and the slot retries): owed a turn.
      unit.ready_at = 0;
      Bump();
      return Push(u);
    }
    Result<Container::Turn> r = c->RunTurn();
    const bool detached = !job->SlotHolds(unit.slot, c.get());
    if (r.ok() && !detached) {
      lock.lock();
      const Container::Turn& turn = r.value();
      total += turn.processed;
      if (turn.processed > 0) Bump();
      unit.ready_at = turn.ready_at_ns;
      // Idle only counts if nothing progressed since the turn began: input
      // appended meanwhile may have landed after this turn's poll.
      if (turn.idle && unit.turn_epoch == epoch) return idle.push_back(u);
      return Push(u);
    }
    if (!detached && !job->Supervised()) {
      SQS_ERROR("container failed: " << r.status().ToString());
      lock.lock();
      return FailWith(r.status());
    }
    // A crash under supervision, or a container detached (killed or
    // replaced) while this worker drove it, whose result belongs to a
    // container that no longer exists: the slot's successor (or the
    // supervisor) is owed a turn.
    if (!detached) job->RecordCrash(unit.slot, r.status());
    lock.lock();
    // Keep the first real error even when supervision later masks it
    // behind a budget-exhaustion message (crash provenance).
    if (!detached && first_crash.ok()) first_crash = r.status();
    unit.ready_at = 0;
    Bump();
    Push(u);
  }

  void Work() {
    std::unique_lock<std::mutex> lock(mu);
    while (!done) {
      if (ready.empty()) {
        // Quiescent: every live unit idle at the current epoch.
        if (running == 0) done = true;
        else cv.wait(lock);
        continue;
      }
      const size_t u = std::get<2>(*ready.begin());
      if (units[u].ready_at > MonotonicNanos()) {
        // Block until the earliest fetch deadline or a queue change.
        cv.wait_until(lock, std::chrono::steady_clock::time_point(
                                std::chrono::nanoseconds(units[u].ready_at)));
        continue;
      }
      ready.erase(ready.begin());
      units[u].turn_epoch = epoch;
      ++running;
      lock.unlock();
      RunUnit(u, lock);
      --running;
      cv.notify_all();
    }
    cv.notify_all();
  }
};

Result<int64_t> JobRunner::RunPipeline(std::vector<JobRunner*> jobs, int threads,
                                       bool fifo) {
  PipelineRun run;
  run.fifo = fifo;
  for (JobRunner* job : jobs) {
    if (!job->started_) return Status::StateError("job not started");
    for (int32_t id = 0; id < static_cast<int32_t>(job->containers_.size());
         ++id) {
      run.units.push_back({job, id});
      run.Push(run.units.size() - 1);
    }
  }
  size_t workers = threads > 0 ? static_cast<size_t>(threads)
                               : run.units.size();
  std::vector<std::thread> pool;
  for (size_t i = 0; i < std::min(workers, run.units.size()); ++i) {
    pool.emplace_back([&run] { run.Work(); });
  }
  for (auto& t : pool) t.join();
  if (!run.first_error.ok()) return run.first_error;
  return run.total;
}

Status JobRunner::Stop() {
  for (auto& container : containers_) {
    if (container) SQS_RETURN_IF_ERROR(container->Stop());
  }
  started_ = false;
  return Status::Ok();
}

Status JobRunner::KillContainer(int32_t container_id) {
  if (container_id < 0 || container_id >= static_cast<int32_t>(containers_.size())) {
    return Status::InvalidArgument("no container " + std::to_string(container_id));
  }
  std::lock_guard<std::mutex> lock(containers_mu_);
  if (!containers_[container_id]) {
    return Status::StateError("container already dead");
  }
  // Detach without Stop(): no final commit, in-memory state lost. The kill
  // flag makes a pool worker currently inside RunUntilCaughtUp return at
  // its next poll-loop check; the object dies with its last reference.
  containers_[container_id]->RequestKill();
  containers_[container_id].reset();
  return Status::Ok();
}

Status JobRunner::RestartContainer(int32_t container_id) {
  if (container_id < 0 || container_id >= static_cast<int32_t>(containers_.size())) {
    return Status::InvalidArgument("no container " + std::to_string(container_id));
  }
  {
    std::lock_guard<std::mutex> lock(containers_mu_);
    if (containers_[container_id]) {
      return Status::StateError("container still running; kill it first");
    }
  }
  auto container = std::make_shared<Container>(
      broker_, config_, model_.containers[container_id], clock_, metrics_);
  SQS_RETURN_IF_ERROR(container->Start());
  std::lock_guard<std::mutex> lock(containers_mu_);
  containers_[container_id] = std::move(container);
  return Status::Ok();
}

size_t JobRunner::NumRunningContainers() const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  size_t n = 0;
  for (const auto& c : containers_) {
    if (c) ++n;
  }
  return n;
}

int64_t JobRunner::TotalRestarts() const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  int64_t total = 0;
  for (const auto& s : supervisor_) total += s.restarts;
  return total;
}

int64_t JobRunner::ContainerRestarts(int32_t container_id) const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  if (container_id < 0 || container_id >= static_cast<int32_t>(supervisor_.size())) {
    return 0;
  }
  return supervisor_[container_id].restarts;
}

std::vector<JobRunner::ContainerStatus> JobRunner::CollectContainerStatus(
    int64_t now_ms) const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  std::vector<ContainerStatus> out;
  out.reserve(containers_.size());
  for (int32_t id = 0; id < static_cast<int32_t>(containers_.size()); ++id) {
    ContainerStatus cs;
    cs.id = id;
    if (containers_[id]) {
      cs.running = true;
      cs.busy = containers_[id]->Busy();
      cs.heartbeat_age_ms = containers_[id]->HeartbeatAgeMs(now_ms);
    }
    out.push_back(cs);
  }
  return out;
}

int64_t JobRunner::TotalProcessed() const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  int64_t total = 0;
  for (const auto& c : containers_) {
    if (c) total += c->MessagesProcessed();
  }
  return total;
}

int64_t JobRunner::TotalBusyNanos() const {
  std::lock_guard<std::mutex> lock(containers_mu_);
  int64_t total = 0;
  for (const auto& c : containers_) {
    if (c) total += c->BusyNanos();
  }
  return total;
}

}  // namespace sqs
