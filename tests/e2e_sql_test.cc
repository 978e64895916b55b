// End-to-end tests: SQL text -> planner -> job config -> containers ->
// operators -> output topic, cross-checked against the reference (batch)
// evaluator — the paper's stated semantics goal: "producing the same
// results on a stream as if the same data were in a table".
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/flightrec.h"
#include "core/executor.h"
#include "core/task.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

using sql::SourceDef;

constexpr int32_t kPartitions = 4;

class E2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env_, kPartitions).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.SetInt(cfg::kCommitEveryMessages, 100);
    executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  }

  void ProduceOrders(int64_t count) {
    workload::OrdersGeneratorOptions options;
    options.num_products = 20;
    workload::OrdersGenerator gen(*env_, options);
    ASSERT_TRUE(gen.Produce(count).ok());
    last_rowtime_ = gen.last_rowtime();
  }

  // Send one far-future order to every partition so event-time watermarks
  // pass all open windows (closing them) in every task.
  void ProduceWatermarkSentinels(int64_t future_ms) {
    auto schema = env_->catalog->GetSource("Orders").value().schema;
    AvroRowSerde serde(schema);
    Producer producer(env_->broker, env_->clock);
    for (int32_t p = 0; p < kPartitions; ++p) {
      Row row{Value(last_rowtime_ + future_ms), Value(int32_t{9999}),
              Value(int64_t{-1}), Value(int32_t{0}), Value("sentinel")};
      ASSERT_TRUE(
          producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok());
    }
  }

  std::multiset<std::string> AsMultiset(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& r : rows) out.insert(RowToString(r));
    return out;
  }

  // Run `streaming_sql` as a job, drain it, and compare its output rows to
  // the reference evaluation of `batch_sql`.
  void CheckAgainstOracle(const std::string& streaming_sql,
                          const std::string& batch_sql) {
    auto submitted = executor_->Execute(streaming_sql);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_EQ(submitted.value().kind,
              QueryExecutor::ExecutionResult::Kind::kJobSubmitted);
    auto ran = executor_->RunJobsUntilQuiescent();
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();

    auto oracle = executor_->Execute(batch_sql);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(AsMultiset(rows.value()), AsMultiset(oracle.value().rows))
        << streaming_sql;
  }

  EnvironmentPtr env_;
  std::unique_ptr<QueryExecutor> executor_;
  int64_t last_rowtime_ = 0;
};

TEST_F(E2eTest, FilterMatchesOracle) {
  ProduceOrders(1500);
  CheckAgainstOracle("SELECT STREAM * FROM Orders WHERE units > 50",
                     "SELECT * FROM Orders WHERE units > 50");
}

TEST_F(E2eTest, ProjectMatchesOracle) {
  ProduceOrders(1500);
  CheckAgainstOracle("SELECT STREAM rowtime, productId, units FROM Orders",
                     "SELECT rowtime, productId, units FROM Orders");
}

TEST_F(E2eTest, ProjectWithExpressionsMatchesOracle) {
  ProduceOrders(800);
  CheckAgainstOracle(
      "SELECT STREAM orderId, units * 2 AS double_units, "
      "CASE WHEN units > 50 THEN 'big' ELSE 'small' END AS bucket FROM Orders",
      "SELECT orderId, units * 2 AS double_units, "
      "CASE WHEN units > 50 THEN 'big' ELSE 'small' END AS bucket FROM Orders");
}

TEST_F(E2eTest, StreamRelationJoinMatchesOracle) {
  ProduceOrders(1200);
  ASSERT_TRUE(workload::ProduceProducts(*env_, 20).ok());
  CheckAgainstOracle(
      "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, Orders.units, "
      "Products.supplierId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId",
      "SELECT Orders.rowtime, Orders.orderId, Orders.productId, Orders.units, "
      "Products.supplierId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId");
}

TEST_F(E2eTest, JoinWithMissingProductsDropsRows) {
  ProduceOrders(600);
  // Only products 0..9 exist; orders reference 0..19.
  ASSERT_TRUE(workload::ProduceProducts(*env_, 10).ok());
  auto submitted = executor_->Execute(
      "SELECT STREAM Orders.orderId, Products.name FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();
  EXPECT_GT(rows.size(), 0u);
  EXPECT_LT(rows.size(), 600u);  // inner join dropped unmatched products
}

TEST_F(E2eTest, SlidingWindowMatchesOracle) {
  ProduceOrders(1000);
  const char* window =
      "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
      "RANGE INTERVAL '5' SECOND PRECEDING) AS unitsRecent";
  CheckAgainstOracle(
      std::string("SELECT STREAM rowtime, productId, units, ") + window + " FROM Orders",
      std::string("SELECT rowtime, productId, units, ") + window + " FROM Orders");
}

TEST_F(E2eTest, SlidingWindowCountAndAvgMatchOracle) {
  ProduceOrders(600);
  const char* calls =
      "COUNT(*) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '10' "
      "SECOND PRECEDING) AS c, "
      "AVG(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '10' "
      "SECOND PRECEDING) AS a";
  CheckAgainstOracle(std::string("SELECT STREAM orderId, ") + calls + " FROM Orders",
                     std::string("SELECT orderId, ") + calls + " FROM Orders");
}

TEST_F(E2eTest, SlidingWindowMinMaxMatchesOracle) {
  ProduceOrders(400);
  const char* calls =
      "MIN(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '8' "
      "SECOND PRECEDING) AS lo, "
      "MAX(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '8' "
      "SECOND PRECEDING) AS hi";
  CheckAgainstOracle(std::string("SELECT STREAM orderId, ") + calls + " FROM Orders",
                     std::string("SELECT orderId, ") + calls + " FROM Orders");
}

TEST_F(E2eTest, TumblingAggregateEmitsClosedWindows) {
  ProduceOrders(1200);
  ProduceWatermarkSentinels(3'600'000);

  auto submitted = executor_->Execute(
      "SELECT STREAM productId, START(rowtime) AS ws, COUNT(*) AS c, SUM(units) AS su "
      "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();

  // Oracle: batch evaluation, minus windows containing only sentinels.
  auto oracle = executor_->Execute(
      "SELECT productId, START(rowtime) AS ws, COUNT(*) AS c, SUM(units) AS su "
      "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId");
  ASSERT_TRUE(oracle.ok());
  std::multiset<std::string> expected;
  for (const Row& r : oracle.value().rows) {
    if (r[0] == Value(int32_t{9999})) continue;  // sentinel group
    expected.insert(RowToString(r));
  }
  std::multiset<std::string> got;
  for (const Row& r : rows) {
    if (r[0] == Value(int32_t{9999})) continue;
    got.insert(RowToString(r));
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(got.size(), 10u);  // sanity: multiple windows closed
}

TEST_F(E2eTest, HoppingAggregateMatchesOracle) {
  ProduceOrders(800);
  ProduceWatermarkSentinels(3'600'000);
  auto submitted = executor_->Execute(
      "SELECT STREAM productId, START(rowtime) AS ws, END(rowtime) AS we, "
      "COUNT(*) AS c FROM Orders GROUP BY "
      "HOP(rowtime, INTERVAL '5' SECOND, INTERVAL '10' SECOND), productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();

  auto oracle = executor_->Execute(
      "SELECT productId, START(rowtime) AS ws, END(rowtime) AS we, COUNT(*) AS c "
      "FROM Orders GROUP BY HOP(rowtime, INTERVAL '5' SECOND, INTERVAL '10' SECOND), "
      "productId");
  ASSERT_TRUE(oracle.ok());
  std::multiset<std::string> expected;
  for (const Row& r : oracle.value().rows) {
    if (r[0] == Value(int32_t{9999})) continue;
    expected.insert(RowToString(r));
  }
  std::multiset<std::string> got;
  for (const Row& r : rows) {
    if (r[0] == Value(int32_t{9999})) continue;
    got.insert(RowToString(r));
  }
  EXPECT_EQ(got, expected);
}

TEST_F(E2eTest, StreamStreamJoinMatchesOracle) {
  workload::PacketsGeneratorOptions options;
  options.max_transit_ms = 1500;
  ASSERT_TRUE(workload::ProducePackets(*env_, 800, options).ok());

  // Grace must cover the bounded disorder in PacketsR2 (max transit).
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  defaults.SetInt(sqlcfg::kGraceMs, 4000);
  QueryExecutor executor(env_, defaults);

  const char* join_sql =
      "FROM PacketsR1 JOIN PacketsR2 ON "
      "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
      "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
      "AND PacketsR1.packetId = PacketsR2.packetId";
  auto submitted = executor.Execute(
      std::string("SELECT STREAM PacketsR1.packetId, "
                  "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel ") +
      join_sql);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();

  auto oracle = executor.Execute(
      std::string("SELECT PacketsR1.packetId, "
                  "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel ") +
      join_sql);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(AsMultiset(rows), AsMultiset(oracle.value().rows));
  EXPECT_GT(rows.size(), 500u);  // most packets reached R2 within the window
}

TEST_F(E2eTest, ViewPipelineFromPaperListing3) {
  ProduceOrders(1500);
  ProduceWatermarkSentinels(7'200'000);
  auto view = executor_->Execute(
      "CREATE VIEW HourlyOrderTotals (wstart, productId, c, su) AS "
      "SELECT START(rowtime), productId, COUNT(*), SUM(units) "
      "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto submitted = executor_->Execute(
      "SELECT STREAM wstart, productId FROM HourlyOrderTotals WHERE c > 2 OR su > 10");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();
  EXPECT_GT(rows.size(), 0u);
}

TEST_F(E2eTest, InsertIntoChainsQueries) {
  ProduceOrders(1000);
  // First job writes big orders into a derived stream; second consumes it.
  auto first = executor_->Execute(
      "INSERT INTO BigOrders SELECT STREAM rowtime, productId, orderId, units "
      "FROM Orders WHERE units > 80");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = executor_->Execute(
      "SELECT STREAM orderId FROM BigOrders WHERE productId = 7");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());

  auto big = executor_->ReadOutputRows("BigOrders").value();
  auto filtered = executor_->ReadOutputRows(second.value().output_topic).value();
  auto oracle = executor_->Execute(
      "SELECT orderId FROM Orders WHERE units > 80 AND productId = 7");
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(AsMultiset(filtered), AsMultiset(oracle.value().rows));
  EXPECT_GT(big.size(), filtered.size());
}

TEST_F(E2eTest, ExplainReturnsPlan) {
  auto result = executor_->Execute("EXPLAIN SELECT STREAM * FROM Orders WHERE units > 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().kind, QueryExecutor::ExecutionResult::Kind::kExplained);
  EXPECT_NE(result.value().text.find("Filter"), std::string::npos);
  EXPECT_NE(result.value().text.find("Scan(Orders STREAM)"), std::string::npos);
}

TEST_F(E2eTest, BatchQueryReturnsRows) {
  ProduceOrders(200);
  auto result = executor_->Execute("SELECT COUNT(*) FROM Orders GROUP BY FLOOR(rowtime TO DAY)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().kind, QueryExecutor::ExecutionResult::Kind::kRows);
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0], Value(int64_t{200}));
}

TEST_F(E2eTest, ScriptExecution) {
  ProduceOrders(100);
  auto results = executor_->ExecuteScript(
      "CREATE VIEW V AS SELECT rowtime, units FROM Orders WHERE units > 10;\n"
      "SELECT STREAM units FROM V;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 2u);
  EXPECT_EQ(results.value()[0].kind, QueryExecutor::ExecutionResult::Kind::kViewCreated);
  EXPECT_EQ(results.value()[1].kind,
            QueryExecutor::ExecutionResult::Kind::kJobSubmitted);
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  auto rows = executor_->ReadOutputRows(results.value()[1].output_topic).value();
  auto oracle = executor_->Execute("SELECT units FROM Orders WHERE units > 10").value();
  EXPECT_EQ(AsMultiset(rows), AsMultiset(oracle.rows));
}

TEST_F(E2eTest, FaultToleranceFilterQuery) {
  ProduceOrders(2000);
  auto submitted = executor_->Execute(
      "SELECT STREAM orderId, units FROM Orders WHERE units > 30");
  ASSERT_TRUE(submitted.ok());
  JobRunner* job = executor_->job(submitted.value().job_index);
  ASSERT_NE(job, nullptr);

  // Process part of the input, then kill container 0 (uncommitted progress
  // is lost and replayed).
  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(300).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());
  ASSERT_TRUE(job->RestartContainer(0).ok());
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();
  auto oracle = executor_->Execute("SELECT orderId, units FROM Orders WHERE units > 30");
  ASSERT_TRUE(oracle.ok());
  // At-least-once: after dedup the outputs equal the oracle exactly.
  std::set<std::string> got, expected;
  for (const Row& r : rows) got.insert(RowToString(r));
  for (const Row& r : oracle.value().rows) expected.insert(RowToString(r));
  EXPECT_EQ(got, expected);
  EXPECT_GE(rows.size(), expected.size());
}

TEST_F(E2eTest, FaultToleranceJoinRestoresTableFromChangelog) {
  ProduceOrders(1000);
  ASSERT_TRUE(workload::ProduceProducts(*env_, 20).ok());
  auto submitted = executor_->Execute(
      "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);

  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(400).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());
  ASSERT_TRUE(job->RestartContainer(0).ok());
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic).value();
  auto oracle = executor_->Execute(
      "SELECT Orders.orderId, Products.supplierId FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(oracle.ok());
  std::set<std::string> got, expected;
  for (const Row& r : rows) got.insert(RowToString(r));
  for (const Row& r : oracle.value().rows) expected.insert(RowToString(r));
  EXPECT_EQ(got, expected);
}

TEST_F(E2eTest, FaultToleranceSlidingWindowIsDeterministic) {
  // The §4.3 claim end to end: kill a container mid-stream; after restore
  // (changelog) + replay (checkpoint), the deduplicated sliding-window
  // output matches an uninterrupted run exactly — including the windows of
  // replayed tuples, which must not have been damaged by purges that
  // happened after the checkpoint.
  workload::OrdersGeneratorOptions options;
  options.num_products = 10;
  options.rowtime_step_ms = 1000;
  workload::OrdersGenerator gen(*env_, options);
  ASSERT_TRUE(gen.Produce(1500).ok());

  const char* sql =
      "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
      "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '30' SECOND "
      "PRECEDING) AS s FROM Orders";

  // Reference: uninterrupted run on a parallel environment with identical
  // data (same generator seed).
  std::set<std::string> reference;
  {
    auto env2 = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env2, kPartitions).ok());
    workload::OrdersGenerator gen2(*env2, options);
    ASSERT_TRUE(gen2.Produce(1500).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    QueryExecutor executor2(env2, defaults);
    auto submitted = executor2.Execute(sql);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(executor2.RunJobsUntilQuiescent().ok());
    auto rows = executor2.ReadOutputRows(submitted.value().output_topic).value();
    for (const Row& r : rows) reference.insert(RowToString(r));
  }

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  defaults.SetInt(cfg::kCommitEveryMessages, 50);
  QueryExecutor executor(env_, defaults);
  auto submitted = executor.Execute(sql);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor.job(submitted.value().job_index);
  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(400).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());
  ASSERT_TRUE(job->RestartContainer(0).ok());
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());

  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  std::set<std::string> got;
  for (const Row& r : rows) got.insert(RowToString(r));
  EXPECT_EQ(got, reference);
  EXPECT_GE(rows.size(), reference.size());  // duplicates allowed, drift not
}

TEST_F(E2eTest, StreamingJobOnMissingTopicFails) {
  SourceDef ghost;
  ghost.name = "Ghost";
  ghost.kind = sql::SourceKind::kStream;
  ghost.topic = "ghost-topic";  // never created on the broker
  ghost.schema = Schema::Make("Ghost", {{"rowtime", FieldType::Int64(), false}});
  ASSERT_TRUE(env_->catalog->RegisterSource(ghost).ok());
  auto result = executor_->Execute("SELECT STREAM * FROM Ghost");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST_F(E2eTest, InsertArityMismatchFails) {
  ProduceOrders(10);
  auto first = executor_->Execute(
      "INSERT INTO Derived SELECT STREAM rowtime, units FROM Orders");
  ASSERT_TRUE(first.ok());
  // Derived now has 2 columns; inserting 3 must fail.
  auto second = executor_->Execute(
      "INSERT INTO Derived SELECT STREAM rowtime, units, orderId FROM Orders");
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("arity"), std::string::npos);
}

// The task-side plan is made once per job: 2 containers x 8 tasks, one
// plan-compile event, and every task's router (a restarted container's
// included) is built from the one shared plan object.
class PlanOnceTest : public ::testing::Test {
 protected:
  static constexpr int32_t kTasks = 8;

  void SetUp() override {
    env_ = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env_, kTasks).ok());
  }

  void StartExecutor(const std::string& fusion) {
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.Set(sqlcfg::kFusion, fusion);
    executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  }

  // Every task of job `index`, over its containers.
  std::vector<const SamzaSqlTask*> Tasks(int index) {
    std::vector<const SamzaSqlTask*> tasks;
    JobRunner* job = executor_->job(index);
    for (size_t c = 0; c < job->NumContainers(); ++c) {
      auto container = job->container(static_cast<int32_t>(c));
      for (size_t t = 0; t < container->num_tasks(); ++t) {
        tasks.push_back(dynamic_cast<const SamzaSqlTask*>(&container->task(t)));
      }
    }
    return tasks;
  }

  // Plan-compile events of `job_name` (the router's per-instantiation
  // plan_built events are scoped by topic and do not count).
  static int PlanCompiles(const std::string& job_name) {
    int plans = 0;
    for (const FlightEvent& e : FlightRecorder::Instance().Snapshot(job_name)) {
      if (e.type == FlightEventType::kPlanBuilt && job_name == e.scope &&
          std::strncmp(e.detail, "job plan", 8) == 0) {
        ++plans;
      }
    }
    return plans;
  }

  EnvironmentPtr env_;
  std::unique_ptr<QueryExecutor> executor_;
};

TEST_F(PlanOnceTest, EachJobIsPlannedOnceAndEveryTaskSharesThePlan) {
  FlightRecorder::Instance().Clear();
  StartExecutor("on");
  const char* queries[] = {
      // One fused stage.
      "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 10",
      // An interpreted DAG with a stateful operator.
      "SELECT STREAM START(rowtime), productId, SUM(units) AS total FROM Orders "
      "GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId"};
  for (const char* query : queries) {
    auto submitted = executor_->Execute(query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    const int index = submitted.value().job_index;
    JobRunner* job = executor_->job(index);
    ASSERT_EQ(job->NumContainers(), 2u);
    EXPECT_EQ(PlanCompiles(job->job_name()), 1) << query;

    std::vector<const SamzaSqlTask*> tasks = Tasks(index);
    ASSERT_EQ(tasks.size(), static_cast<size_t>(kTasks));
    const ops::RouterPlan* plan = tasks[0]->router()->plan();
    ASSERT_NE(plan, nullptr);
    for (const SamzaSqlTask* task : tasks) EXPECT_EQ(task->router()->plan(), plan);

    // A restarted container rebuilds its tasks from the same plan object,
    // without planning again.
    ASSERT_TRUE(job->KillContainer(1).ok());
    ASSERT_TRUE(job->RestartContainer(1).ok());
    tasks = Tasks(index);
    ASSERT_EQ(tasks.size(), static_cast<size_t>(kTasks));
    for (const SamzaSqlTask* task : tasks) EXPECT_EQ(task->router()->plan(), plan);
    EXPECT_EQ(PlanCompiles(job->job_name()), 1) << query;
  }
  EXPECT_TRUE(executor_->RunJobsUntilQuiescent().ok());
}

TEST_F(PlanOnceTest, OperatorMetricsAreRegisteredBeforeTheFirstMessage) {
  workload::OrdersGeneratorOptions options;
  options.num_products = 20;
  workload::OrdersGenerator gen(*env_, options);
  ASSERT_TRUE(gen.Produce(100).ok());
  // Interpreted: the scans, the join, the project and the insert are all
  // operators of every task.
  StartExecutor("off");
  auto submitted = executor_->Execute(
      "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders "
      "JOIN Products ON Orders.productId = Products.productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);
  EXPECT_EQ(job->TotalProcessed(), 0);

  const MetricsSnapshot snap = job->metrics_registry()->Snapshot();
  const std::vector<const SamzaSqlTask*> tasks = Tasks(submitted.value().job_index);
  ASSERT_EQ(tasks.size(), static_cast<size_t>(kTasks));
  const size_t num_operators = tasks[0]->router()->num_operators();
  EXPECT_EQ(num_operators, 5u);
  const std::string job_scope = ScopedMetrics::Sanitize(job->job_name());
  const std::string suffix = ".processed";
  for (int32_t p = 0; p < kTasks; ++p) {
    const std::string prefix =
        job_scope + "." + ScopedMetrics::Sanitize("Partition " + std::to_string(p)) + ".";
    size_t registered = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind(prefix, 0) == 0 && name.size() > prefix.size() + suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        ++registered;
        EXPECT_EQ(value, 0) << name;
      }
    }
    EXPECT_EQ(registered, num_operators) << prefix;
  }
  EXPECT_EQ(snap.counters.count(job_scope + ".Partition_0.op1-stream-table-join.processed"),
            1u);
}

}  // namespace
}  // namespace sqs::core
