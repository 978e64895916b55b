// FaultInjectingFileFactory: the file-layer sibling of FaultInjectingBroker
// (log/fault_broker.h). It decorates a FileFactory so every byte the durable
// log believes it wrote can be lost, torn, or corrupted on a seeded,
// reproducible schedule:
//
//  - buffered-unsynced semantics: Append lands in an in-memory buffer that
//    reaches the inner file only on Sync()/Close(). CrashAndDropUnsynced()
//    simulates power loss — open files lose their unsynced tail, except for
//    a seeded torn prefix (a partial record frame) that models a write the
//    disk half-finished;
//  - short writes: an injected Append failure persists a seeded prefix of
//    the data and returns Unavailable, leaving a dirty tail the segment
//    writer must repair (truncate) before continuing;
//  - bit flips: a seeded fraction of syncs flips one bit in the bytes being
//    flushed — silent media corruption the CRC scan must catch at recovery;
//  - failed fsyncs: Sync() fails with Unavailable without flushing;
//  - ENOSPC: after a byte budget, every Append fails like a full disk.
//
// Directory metadata operations (create/rename/remove) pass through and are
// treated as instantly durable; the simulation boundary is file content,
// which is where torn-write bugs live. See docs/DURABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "io/file.h"

namespace sqs::io {

// The fault schedule, set in code by the test or harness that builds the
// factory. Every rate is a probability in [0,1].
struct FileFaultPolicy {
  // RNG seed for all injection schedules.
  uint64_t seed = 1;
  // Chance that an Append persists only a prefix and fails.
  double short_write_rate = 0.0;
  // Chance that a Sync fails without flushing.
  double fsync_fail_rate = 0.0;
  // Chance that a sync flips one bit in the flushed bytes.
  double bitflip_rate = 0.0;
  // Total bytes accepted across all files before Appends fail with ENOSPC
  // (-1 = unlimited).
  int64_t enospc_after_bytes = -1;
  // Forward Sync() to the inner file's fsync. Off by default: the factory's
  // own buffer flush is the durability boundary the tests reason about, and
  // skipping the real fsync keeps seeded soaks fast.
  bool sync_passthrough = false;
};

class FaultInjectingFile;

class FaultInjectingFileFactory : public FileFactory,
                                  public std::enable_shared_from_this<FaultInjectingFileFactory> {
 public:
  explicit FaultInjectingFileFactory(FileFaultPolicy policy,
                                     FileFactoryPtr inner = nullptr);

  // --- crash simulation ---
  // Power loss: every open file drops its unsynced buffer. With probability
  // `torn_rate` per dirty file, a seeded prefix of the dropped tail (with a
  // possible bit flip) is persisted instead — a torn write. After this call
  // the factory refuses further writes until Revive(): the "machine" is off.
  void CrashAndDropUnsynced(double torn_rate = 0.0);
  // Power back on: new opens work again (reads always work).
  void Revive();

  // --- deterministic fault control ---
  void FailNextAppends(int32_t n) { forced_append_failures_.store(n); }
  void FailNextFsyncs(int32_t n) { forced_fsync_failures_.store(n); }

  // --- observability ---
  int64_t total_unsynced_bytes() const;
  int64_t injected_short_writes() const { return short_writes_.load(); }
  int64_t injected_fsync_failures() const { return fsync_failures_.load(); }
  int64_t injected_bitflips() const { return bitflips_.load(); }
  int64_t injected_enospc_failures() const { return enospc_failures_.load(); }
  int64_t torn_files() const { return torn_files_.load(); }

  // --- FileFactory ---
  Result<LogFilePtr> OpenAppend(const std::string& path) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<std::vector<std::string>> ListSubdirs(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveAllUnder(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Status SyncDir(const std::string& path) override;

 private:
  friend class FaultInjectingFile;

  double NextUniform();
  bool IsCrashed() const;
  // Consume one token from a FailNext* counter; false if none remain.
  static bool TakeForcedToken(std::atomic<int32_t>* counter);
  // Charge `n` bytes against the ENOSPC budget; false = budget blown.
  bool ChargeBytes(int64_t n);
  void Deregister(FaultInjectingFile* f);

  FileFactoryPtr inner_;
  FileFaultPolicy policy_;

  mutable std::mutex mu_;  // guards rng_, open_files_, crashed_
  uint64_t rng_;
  std::set<FaultInjectingFile*> open_files_;
  bool crashed_ = false;

  std::atomic<int64_t> bytes_budget_;
  std::atomic<int32_t> forced_append_failures_{0};
  std::atomic<int32_t> forced_fsync_failures_{0};
  std::atomic<int64_t> short_writes_{0};
  std::atomic<int64_t> fsync_failures_{0};
  std::atomic<int64_t> bitflips_{0};
  std::atomic<int64_t> enospc_failures_{0};
  std::atomic<int64_t> torn_files_{0};
};

using FaultFileFactoryPtr = std::shared_ptr<FaultInjectingFileFactory>;

}  // namespace sqs::io
