// JobRunner: the YARN stand-in. Builds the job model (application-master
// role), allocates containers, and drives them. Supports:
//  - one driver (RunPipeline): worker threads take containers off a ready
//    queue ordered by fetch deadline and run one turn each, until every
//    container of every chained job is idle — see docs/EXECUTION.md
//    "Threaded execution"; one worker in FIFO order is the deterministic
//    serial mode;
//  - failure injection: KillContainer drops a container without clean
//    shutdown; RestartContainer allocates a fresh one that restores state
//    from changelogs and resumes from the last checkpoint (§2 Durability);
//  - supervision: with container.restart.max > 0, a dead container is
//    automatically restarted with capped exponential backoff, re-running
//    the full recovery path; the restart budget bounds crash loops
//    (docs/FAULT_TOLERANCE.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/status.h"
#include "log/broker.h"
#include "task/container.h"
#include "task/model.h"

namespace sqs {

class JobRunner {
 public:
  JobRunner(BrokerPtr broker, Config config, std::shared_ptr<Clock> clock = nullptr);

  // Build the job model and start all containers.
  Status Start();

  // Run this job's containers until quiescent: RunPipeline({this},
  // threads). Picks up input appended between calls; returns messages
  // processed by this call. threads = 0 means one worker per container.
  Result<int64_t> RunThreadedUntilQuiescent(int threads = 0);

  Status Stop();

  // Failure injection.
  Status KillContainer(int32_t container_id);
  Status RestartContainer(int32_t container_id);

  // Supervision state (container.restart.max > 0 enables the supervisor).
  bool Supervised() const { return restart_max_ > 0; }
  // Restart attempts made by the supervisor (manual RestartContainer calls
  // are not counted), total and per slot. Feeds /jobs and /readyz.
  int64_t TotalRestarts() const;
  int64_t ContainerRestarts(int32_t container_id) const;

  const JobModel& job_model() const { return model_; }
  const std::string& job_name() const { return model_.job_name; }
  const Config& config() const { return config_; }
  size_t NumContainers() const { return containers_.size(); }
  // Allocated containers currently alive (a killed slot stays nullptr until
  // RestartContainer); feeds the monitor's /readyz containers check.
  size_t NumRunningContainers() const;
  bool AllContainersRunning() const {
    return NumRunningContainers() == containers_.size();
  }
  // The slot's current container, kept alive for the caller even if
  // KillContainer / a crash clears the slot concurrently; null when dead.
  std::shared_ptr<Container> container(int32_t id) const {
    std::lock_guard<std::mutex> lock(containers_mu_);
    return id >= 0 && id < static_cast<int32_t>(containers_.size())
               ? containers_[id]
               : nullptr;
  }

  int64_t TotalProcessed() const;
  int64_t TotalBusyNanos() const;

  // Wall-clock ms since Start() (0 before Start). Feeds the resource
  // ledger's uptime column in SHOW JOBS / GET /jobs.
  int64_t UptimeMs(int64_t now_ms) const {
    return started_ ? std::max<int64_t>(0, now_ms - start_ms_) : 0;
  }

  // Per-slot health for the monitor's watchdog: running (allocated), busy
  // (inside a turn), and heartbeat age at `now_ms`. Thread-safe.
  struct ContainerStatus {
    int32_t id = 0;
    bool running = false;
    bool busy = false;
    int64_t heartbeat_age_ms = 0;
  };
  std::vector<ContainerStatus> CollectContainerStatus(int64_t now_ms) const;

  // Job-wide registry shared by every container this runner allocates
  // (including restarts), so one Snapshot() sees the whole job. Created at
  // construction; valid before Start().
  const std::shared_ptr<MetricsRegistry>& metrics_registry() const {
    return metrics_;
  }

  // The one driver: run every container of every job (a Kappa-style
  // pipeline may chain them through intermediate topics) until globally
  // quiescent. Workers pop the container whose pending fetch is due first
  // off a ready queue, run one Container::RunTurn on it (so no container is
  // ever driven by two threads), and requeue it at its next fetch deadline;
  // they block, never spin, until the earliest deadline. A container whose
  // turn found nothing parks idle and is re-polled once per progress epoch
  // (any progress or supervisor action bumps it). The run ends when every
  // live container is idle at the current epoch and none is on a worker —
  // a downstream container cannot exit while an upstream job still
  // produces. threads = 0 means one worker per container; fifo orders the
  // queue by push order instead (executor.mode=serial is one FIFO worker).
  // On failure the returned status is the first real container error
  // (crash provenance survives supervision — see docs/EXECUTION.md).
  static Result<int64_t> RunPipeline(std::vector<JobRunner*> jobs,
                                     int threads = 0, bool fifo = false);

 private:
  struct PipelineRun;  // one RunPipeline call's ready queue and idle set

  // Per-slot supervision bookkeeping.
  struct SupervisorState {
    int64_t restarts = 0;
    int64_t next_backoff_ms = 0;
    std::string last_error;
  };

  // True while `slot` still holds exactly `c` — a worker uses this to tell
  // "my container crashed" from "my container was detached (killed /
  // replaced) while I was driving it".
  bool SlotHolds(int32_t container_id, const Container* c) const;

  // Restart a dead slot under the supervisor: sleep the slot's backoff,
  // count the attempt, allocate + Start a fresh container (full recovery).
  // Returns an error once the slot's restart budget is exhausted.
  Status SuperviseRestart(int32_t container_id);
  // Crash semantics for a container that returned an error: drop the slot
  // (in-memory state lost) and record why. The next supervision pass
  // restarts it.
  void RecordCrash(int32_t container_id, const Status& error);

  BrokerPtr broker_;
  Config config_;
  std::shared_ptr<Clock> clock_;
  std::shared_ptr<MetricsRegistry> metrics_;
  JobModel model_;
  // shared_ptr, not unique_ptr: KillContainer only detaches a slot (and
  // raises the container's kill flag); the object is destroyed when the
  // last holder — possibly a pool worker inside a turn — drops
  // its reference. This is what makes kill-during-threaded-run safe.
  std::vector<std::shared_ptr<Container>> containers_;
  bool started_ = false;
  int64_t start_ms_ = 0;  // clock time at Start(), for UptimeMs()

  // Supervisor config (container.restart.*), read at Start().
  int64_t restart_max_ = 0;  // 0 = supervision off
  int64_t restart_backoff_ms_ = 0;
  int64_t restart_backoff_max_ms_ = 0;
  std::vector<SupervisorState> supervisor_;
  Counter* m_restarts_ = nullptr;  // `<job>.supervisor.container_restarts`

  // Guards containers_ slot swaps and supervisor_ so the monitor thread and
  // threaded-mode supervision see consistent restart/running state.
  mutable std::mutex containers_mu_;
};

}  // namespace sqs
