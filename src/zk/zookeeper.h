// In-process ZooKeeper stand-in. The paper (§4.1–4.2) uses ZooKeeper as the
// metadata rendezvous between shell-side query planning and task-side
// re-planning: the SQL text, schema locations, and serde settings are stored
// under znode paths referenced from the generated job configuration.
// We preserve the semantics that matter: hierarchical paths and
// create/get/set/delete/list. There are no watches: as in the paper (§4.2),
// a task reads its query's znodes once, when it starts, and never again.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqs {

class ZooKeeperSim {
 public:
  // Creates a znode. Parents must exist (like ZooKeeper). Fails with
  // AlreadyExists if present.
  Status Create(const std::string& path, std::string data);

  // Create, making parent znodes (with empty data) as needed.
  Status CreateRecursive(const std::string& path, std::string data);

  Result<std::string> Get(const std::string& path) const;

  // Set data on an existing znode.
  Status Set(const std::string& path, std::string data);

  // Create-or-set.
  Status Put(const std::string& path, std::string data);

  // Delete a znode; fails if it has children.
  Status Delete(const std::string& path);

  bool Exists(const std::string& path) const;

  // Immediate children names (not full paths), sorted.
  Result<std::vector<std::string>> List(const std::string& path) const;

  static Status ValidatePath(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> nodes_;
};

}  // namespace sqs
