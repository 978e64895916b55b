// SamzaSqlEnvironment: the shared infrastructure a SamzaSQL deployment
// talks to (paper Figure 2) — the message broker (Kafka), ZooKeeper, the
// schema registry, and the catalog the shell plans against.
#pragma once

#include <memory>

#include "common/clock.h"
#include "common/config.h"
#include "log/broker.h"
#include "serde/registry.h"
#include "sql/catalog.h"
#include "zk/zookeeper.h"

namespace sqs::core {

struct SamzaSqlEnvironment {
  BrokerPtr broker;
  std::shared_ptr<ZooKeeperSim> zk;
  std::shared_ptr<SchemaRegistry> registry;
  sql::CatalogPtr catalog;
  std::shared_ptr<Clock> clock;

  static std::shared_ptr<SamzaSqlEnvironment> Make(
      std::shared_ptr<Clock> clock = nullptr) {
    auto env = std::make_shared<SamzaSqlEnvironment>();
    env->broker = std::make_shared<Broker>();
    env->zk = std::make_shared<ZooKeeperSim>();
    env->registry = std::make_shared<SchemaRegistry>();
    env->catalog = std::make_shared<sql::Catalog>();
    env->clock = clock ? std::move(clock) : SystemClock::Instance();
    return env;
  }
};

using EnvironmentPtr = std::shared_ptr<SamzaSqlEnvironment>;

// Configuration keys specific to SamzaSQL jobs.
namespace sqlcfg {
inline constexpr const char* kZkPrefix = "samzasql.zk.prefix";
inline constexpr const char* kOutputTopic = "samzasql.output.topic";
inline constexpr const char* kOutputSchema = "samzasql.output.schema";   // canonical
inline constexpr const char* kOutputFormat = "samzasql.output.format";
inline constexpr const char* kOutputKeyIndex = "samzasql.output.key.index";
inline constexpr const char* kStateSerde = "samzasql.state.serde";
inline constexpr const char* kGraceMs = "samzasql.window.grace.ms";
// Fused execution of the root filter/project chain, over a scan or a
// stream-relation join: "on" (default) or "off" ("false"/"0" also accepted)
// — the escape hatch back to the fully interpreted operator DAG. See
// docs/EXECUTION.md.
inline constexpr const char* kFusion = "sql.fusion";

inline bool FusionEnabled(const Config& config) {
  const std::string fusion = config.Get(kFusion, "on");
  return !(fusion == "off" || fusion == "false" || fusion == "0");
}
}  // namespace sqlcfg

}  // namespace sqs::core
