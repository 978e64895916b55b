#include "zk/zookeeper.h"

namespace sqs {

namespace {
std::string ParentOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == 0) return "/";
  return path.substr(0, slash);
}
}  // namespace

Status ZooKeeperSim::ValidatePath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("znode path must start with '/': " + path);
  }
  if (path.size() > 1 && path.back() == '/') {
    return Status::InvalidArgument("znode path must not end with '/': " + path);
  }
  if (path.find("//") != std::string::npos) {
    return Status::InvalidArgument("znode path has empty segment: " + path);
  }
  return Status::Ok();
}

Status ZooKeeperSim::Create(const std::string& path, std::string data) {
  SQS_RETURN_IF_ERROR(ValidatePath(path));
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_.count(path)) return Status::AlreadyExists("znode exists: " + path);
  if (path != "/") {
    std::string parent = ParentOf(path);
    if (parent != "/" && !nodes_.count(parent)) {
      return Status::NotFound("parent znode missing: " + parent);
    }
  }
  nodes_[path] = std::move(data);
  return Status::Ok();
}

Status ZooKeeperSim::CreateRecursive(const std::string& path, std::string data) {
  SQS_RETURN_IF_ERROR(ValidatePath(path));
  // Build list of missing ancestors.
  std::vector<std::string> to_create;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string cur = path;
    while (cur != "/" && !nodes_.count(cur)) {
      to_create.push_back(cur);
      cur = ParentOf(cur);
    }
  }
  for (auto it = to_create.rbegin(); it != to_create.rend(); ++it) {
    Status st = Create(*it, *it == path ? std::move(data) : std::string());
    if (!st.ok() && st.code() != ErrorCode::kAlreadyExists) return st;
  }
  if (to_create.empty()) return Set(path, std::move(data));
  return Status::Ok();
}

Result<std::string> ZooKeeperSim::Get(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no znode: " + path);
  return it->second;
}

Status ZooKeeperSim::Set(const std::string& path, std::string data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no znode: " + path);
  it->second = std::move(data);
  return Status::Ok();
}

Status ZooKeeperSim::Put(const std::string& path, std::string data) {
  if (Exists(path)) return Set(path, std::move(data));
  return CreateRecursive(path, std::move(data));
}

Status ZooKeeperSim::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no znode: " + path);
  // Children check: any node with prefix path + "/".
  auto next = std::next(it);
  if (next != nodes_.end() && next->first.compare(0, path.size() + 1, path + "/") == 0) {
    return Status::InvalidArgument("znode has children: " + path);
  }
  nodes_.erase(it);
  return Status::Ok();
}

bool ZooKeeperSim::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.count(path) > 0;
}

Result<std::vector<std::string>> ZooKeeperSim::List(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (path != "/" && !nodes_.count(path)) return Status::NotFound("no znode: " + path);
  std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<std::string> children;
  for (auto it = nodes_.lower_bound(prefix); it != nodes_.end(); ++it) {
    const std::string& p = it->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    std::string rest = p.substr(prefix.size());
    if (rest.find('/') == std::string::npos) children.push_back(rest);
  }
  return children;
}

}  // namespace sqs
