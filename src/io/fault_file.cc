#include "io/fault_file.h"

#include <algorithm>
#include <utility>

namespace sqs::io {

namespace {

// splitmix64 — tiny, seedable, good enough for fault schedules.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ToUniform(uint64_t r) {
  return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

// A file whose unsynced bytes live in `pending_` until Sync() flushes them
// to the inner file.
//
// Lock order: factory mu_ before file mu_ (CrashAndDropUnsynced and
// total_unsynced_bytes hold both). File methods therefore make every
// factory-RNG decision BEFORE taking the file lock, never while holding it.
class FaultInjectingFile : public LogFile {
 public:
  FaultInjectingFile(std::shared_ptr<FaultInjectingFileFactory> factory,
                     LogFilePtr inner, std::string path)
      : factory_(std::move(factory)),
        inner_(std::move(inner)),
        path_(std::move(path)),
        synced_size_(inner_->size()) {}

  ~FaultInjectingFile() override {
    factory_->Deregister(this);
    // Destruction without Close() models an abrupt handle drop: unsynced
    // bytes are simply gone (matches the factory's crash semantics).
  }

  Status Append(const void* data, size_t n) override {
    if (factory_->IsCrashed()) {
      return Status::Unavailable("iofault: machine is down (" + path_ + ")");
    }
    if (!factory_->ChargeBytes(static_cast<int64_t>(n))) {
      factory_->enospc_failures_.fetch_add(1);
      return Status::Unavailable("iofault: no space left on device (" + path_ + ")");
    }
    // Fault decisions use the factory lock; take them before the file lock.
    bool fail = factory_->TakeForcedToken(&factory_->forced_append_failures_);
    if (!fail && factory_->policy_.short_write_rate > 0.0) {
      fail = factory_->NextUniform() < factory_->policy_.short_write_rate;
    }
    double keep_fraction = fail ? factory_->NextUniform() : 0.0;

    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::StateError("append on closed file " + path_);
    const auto* p = static_cast<const uint8_t*>(data);
    if (fail && n > 0) {
      // Persist a seeded prefix, then fail: the classic short write. The
      // caller must repair (truncate) before appending again.
      size_t keep = static_cast<size_t>(keep_fraction * static_cast<double>(n));
      pending_.insert(pending_.end(), p, p + keep);
      factory_->short_writes_.fetch_add(1);
      return Status::Unavailable("iofault: short write (" + path_ + ")");
    }
    pending_.insert(pending_.end(), p, p + n);
    return Status::Ok();
  }

  Status Sync() override {
    if (factory_->IsCrashed()) {
      return Status::Unavailable("iofault: machine is down (" + path_ + ")");
    }
    bool fail = factory_->TakeForcedToken(&factory_->forced_fsync_failures_);
    if (!fail && factory_->policy_.fsync_fail_rate > 0.0) {
      fail = factory_->NextUniform() < factory_->policy_.fsync_fail_rate;
    }
    if (fail) {
      factory_->fsync_failures_.fetch_add(1);
      return Status::Unavailable("iofault: fsync failed (" + path_ + ")");
    }
    bool flip = factory_->policy_.bitflip_rate > 0.0 &&
                factory_->NextUniform() < factory_->policy_.bitflip_rate;
    double flip_pos = flip ? factory_->NextUniform() : 0.0;
    unsigned flip_bit =
        flip ? static_cast<unsigned>(factory_->NextUniform() * 8.0) & 7u : 0u;

    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::StateError("sync on closed file " + path_);
    return FlushLocked(/*sync_inner=*/factory_->policy_.sync_passthrough, flip,
                       flip_pos, flip_bit);
  }

  Status Truncate(int64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::StateError("truncate on closed file " + path_);
    int64_t logical = synced_size_ + static_cast<int64_t>(pending_.size());
    if (size > logical) {
      return Status::InvalidArgument("truncate past end of " + path_);
    }
    if (size >= synced_size_) {
      pending_.resize(static_cast<size_t>(size - synced_size_));
      return Status::Ok();
    }
    pending_.clear();
    SQS_RETURN_IF_ERROR(inner_->Truncate(size));
    synced_size_ = size;
    return Status::Ok();
  }

  Status Close() override {
    // Close flushes to the OS (survives process exit) but does not fsync —
    // the bytes stay in the "lost on power cut" window until a successful
    // Sync. A crashed factory swallows them instead.
    bool machine_up = !factory_->IsCrashed();
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Ok();
    Status s = Status::Ok();
    if (machine_up) {
      s = FlushLocked(/*sync_inner=*/false, /*flip=*/false, 0.0, 0u);
    } else {
      pending_.clear();
    }
    Status c = inner_->Close();
    closed_ = true;
    if (!s.ok()) return s;
    return c;
  }

  int64_t size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return synced_size_ + static_cast<int64_t>(pending_.size());
  }

 private:
  friend class FaultInjectingFileFactory;

  // Requires mu_. Pushes pending_ into the inner file, optionally flipping
  // one pre-chosen bit (silent corruption only the CRC scan can catch).
  Status FlushLocked(bool sync_inner, bool flip, double flip_pos,
                     unsigned flip_bit) {
    if (!pending_.empty()) {
      if (flip) {
        size_t byte = static_cast<size_t>(flip_pos *
                                          static_cast<double>(pending_.size()));
        byte = std::min(byte, pending_.size() - 1);
        pending_[byte] ^= static_cast<uint8_t>(1u << flip_bit);
        factory_->bitflips_.fetch_add(1);
      }
      SQS_RETURN_IF_ERROR(inner_->Append(pending_.data(), pending_.size()));
      synced_size_ += static_cast<int64_t>(pending_.size());
      pending_.clear();
    }
    if (sync_inner) return inner_->Sync();
    return Status::Ok();
  }

  // Called with factory mu_ held (lock order: factory before file). Drops
  // the unsynced tail; with `torn`, a seeded prefix (maybe bit-flipped)
  // reaches the inner file instead.
  void CrashLocked(bool torn, uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || pending_.empty()) {
      pending_.clear();
      return;
    }
    if (torn) {
      size_t keep = 1 + static_cast<size_t>(
          ToUniform(NextRand(&seed)) * static_cast<double>(pending_.size() - 1));
      pending_.resize(keep);
      if (ToUniform(NextRand(&seed)) < 0.5) {
        size_t byte = static_cast<size_t>(ToUniform(NextRand(&seed)) *
                                          static_cast<double>(keep));
        byte = std::min(byte, keep - 1);
        pending_[byte] ^= static_cast<uint8_t>(1u << (NextRand(&seed) & 7u));
      }
      (void)inner_->Append(pending_.data(), pending_.size());
      factory_->torn_files_.fetch_add(1);
    }
    pending_.clear();
  }

  int64_t UnsyncedBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ ? 0 : static_cast<int64_t>(pending_.size());
  }

  std::shared_ptr<FaultInjectingFileFactory> factory_;
  LogFilePtr inner_;
  std::string path_;

  mutable std::mutex mu_;
  Bytes pending_;
  int64_t synced_size_;
  bool closed_ = false;
};

FaultInjectingFileFactory::FaultInjectingFileFactory(FileFaultPolicy policy,
                                                     FileFactoryPtr inner)
    : inner_(inner ? std::move(inner) : PosixFileFactory::Instance()),
      policy_(policy),
      rng_(policy.seed * 0x2545F4914F6CDD1DULL + 1),
      bytes_budget_(policy.enospc_after_bytes) {}

double FaultInjectingFileFactory::NextUniform() {
  std::lock_guard<std::mutex> lock(mu_);
  return ToUniform(NextRand(&rng_));
}

bool FaultInjectingFileFactory::TakeForcedToken(std::atomic<int32_t>* counter) {
  int32_t n = counter->load();
  while (n > 0) {
    if (counter->compare_exchange_weak(n, n - 1)) return true;
  }
  return false;
}

bool FaultInjectingFileFactory::ChargeBytes(int64_t n) {
  if (policy_.enospc_after_bytes < 0) return true;
  return bytes_budget_.fetch_sub(n) >= n;
}

bool FaultInjectingFileFactory::IsCrashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void FaultInjectingFileFactory::Deregister(FaultInjectingFile* f) {
  std::lock_guard<std::mutex> lock(mu_);
  open_files_.erase(f);
}

void FaultInjectingFileFactory::CrashAndDropUnsynced(double torn_rate) {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  for (auto* f : open_files_) {
    bool torn = torn_rate > 0.0 && ToUniform(NextRand(&rng_)) < torn_rate;
    f->CrashLocked(torn, NextRand(&rng_));
  }
}

void FaultInjectingFileFactory::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
}

int64_t FaultInjectingFileFactory::total_unsynced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (auto* f : open_files_) total += f->UnsyncedBytes();
  return total;
}

Result<LogFilePtr> FaultInjectingFileFactory::OpenAppend(const std::string& path) {
  if (IsCrashed()) return Status::Unavailable("iofault: machine is down");
  SQS_ASSIGN_OR_RETURN(inner, inner_->OpenAppend(path));
  auto* file = new FaultInjectingFile(shared_from_this(), std::move(inner), path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_files_.insert(file);
  }
  return LogFilePtr(file);
}

Result<Bytes> FaultInjectingFileFactory::ReadFile(const std::string& path) {
  return inner_->ReadFile(path);
}

Status FaultInjectingFileFactory::CreateDirs(const std::string& path) {
  return inner_->CreateDirs(path);
}

Result<std::vector<std::string>> FaultInjectingFileFactory::ListDir(
    const std::string& path) {
  return inner_->ListDir(path);
}

Result<std::vector<std::string>> FaultInjectingFileFactory::ListSubdirs(
    const std::string& path) {
  return inner_->ListSubdirs(path);
}

Status FaultInjectingFileFactory::RemoveFile(const std::string& path) {
  return inner_->RemoveFile(path);
}

Status FaultInjectingFileFactory::Rename(const std::string& from,
                                         const std::string& to) {
  return inner_->Rename(from, to);
}

Status FaultInjectingFileFactory::RemoveAllUnder(const std::string& path) {
  return inner_->RemoveAllUnder(path);
}

bool FaultInjectingFileFactory::Exists(const std::string& path) {
  return inner_->Exists(path);
}

Status FaultInjectingFileFactory::SyncDir(const std::string& path) {
  if (policy_.sync_passthrough) return inner_->SyncDir(path);
  return Status::Ok();
}

}  // namespace sqs::io
