// Property sweep: for a broad set of queries, the streaming execution over
// randomized data must equal the reference (stream-history-as-table)
// evaluation — the paper's central semantics claim, parameterized.
// Also: fault tolerance of the stateful aggregate operator.
#include <gtest/gtest.h>

#include <set>

#include "core/executor.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

struct QueryCase {
  const char* name;
  const char* select_body;  // appended after SELECT [STREAM]
  int64_t orders = 1000;
  bool needs_products = false;
};

// gtest's default printer dumps the struct's raw bytes, pointers included, so
// the listed test names would change from run to run under ASLR.
void PrintTo(const QueryCase& qc, std::ostream* os) { *os << qc.name; }

class EquivalenceSweep : public ::testing::TestWithParam<QueryCase> {};

TEST_P(EquivalenceSweep, StreamingEqualsBatch) {
  const QueryCase& qc = GetParam();
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 4).ok());
  workload::OrdersGeneratorOptions options;
  options.num_products = 15;
  options.seed = 1234;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(qc.orders).ok());
  if (qc.needs_products) {
    ASSERT_TRUE(workload::ProduceProducts(*env, 15).ok());
  }

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 3);
  defaults.SetInt(cfg::kCommitEveryMessages, 64);
  QueryExecutor executor(env, defaults);

  auto submitted = executor.Execute(std::string("SELECT STREAM ") + qc.select_body);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  auto rows = executor.ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  auto oracle = executor.Execute(std::string("SELECT ") + qc.select_body);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  std::multiset<std::string> got, expected;
  for (const Row& r : rows.value()) got.insert(RowToString(r));
  for (const Row& r : oracle.value().rows) expected.insert(RowToString(r));
  EXPECT_EQ(got, expected) << qc.select_body;
  EXPECT_FALSE(got.empty()) << "query produced nothing: " << qc.select_body;
}

INSTANTIATE_TEST_SUITE_P(
    Queries, EquivalenceSweep,
    ::testing::Values(
        QueryCase{"star", "* FROM Orders"},
        QueryCase{"filter_simple", "* FROM Orders WHERE units > 50"},
        QueryCase{"filter_compound",
                  "orderId FROM Orders WHERE units BETWEEN 20 AND 60 AND "
                  "productId IN (1, 3, 5) OR units = 99"},
        QueryCase{"filter_string", "orderId FROM Orders WHERE pad IS NOT NULL"},
        QueryCase{"project_arith",
                  "orderId, units * productId + 1 AS score, -units AS neg FROM Orders"},
        QueryCase{"project_case",
                  "orderId, CASE WHEN units > 66 THEN 'hi' WHEN units > 33 THEN 'mid' "
                  "ELSE 'lo' END AS bucket FROM Orders"},
        QueryCase{"project_funcs",
                  "orderId, GREATEST(units, 50) AS g, MOD(units, 7) AS m, "
                  "CAST(units AS DOUBLE) / 4 AS q FROM Orders"},
        QueryCase{"project_strings",
                  "orderId, UPPER(pad) AS up, CHAR_LENGTH(pad) AS len, "
                  "SUBSTRING(pad, 1, 4) AS head FROM Orders"},
        QueryCase{"floor_rowtime",
                  "orderId, FLOOR(rowtime TO SECOND) AS sec FROM Orders", 400},
        QueryCase{"subquery",
                  "big FROM (SELECT orderId AS big, units AS u FROM Orders) "
                  "WHERE u > 75"},
        QueryCase{"join_basic",
                  "Orders.orderId, Products.name FROM Orders JOIN Products ON "
                  "Orders.productId = Products.productId",
                  800, true},
        QueryCase{"join_filtered",
                  "Orders.orderId, Products.supplierId FROM Orders JOIN Products ON "
                  "Orders.productId = Products.productId "
                  "WHERE Orders.units > 40 AND Products.supplierId > 10",
                  800, true},
        QueryCase{"join_projected_expr",
                  "Orders.orderId, Orders.units + Products.supplierId AS blend "
                  "FROM Orders JOIN Products ON Orders.productId = Products.productId",
                  600, true},
        QueryCase{"window_sum",
                  "orderId, SUM(units) OVER (PARTITION BY productId ORDER BY rowtime "
                  "RANGE INTERVAL '2' SECOND PRECEDING) AS s FROM Orders",
                  600},
        QueryCase{"window_multi",
                  "orderId, "
                  "COUNT(*) OVER (PARTITION BY productId ORDER BY rowtime RANGE "
                  "INTERVAL '1' SECOND PRECEDING) AS c, "
                  "MAX(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE "
                  "INTERVAL '3' SECOND PRECEDING) AS m FROM Orders",
                  500}),
    [](const ::testing::TestParamInfo<QueryCase>& info) { return info.param.name; });

TEST(AggregateFaultToleranceTest, TumblingAggregateSurvivesKillRestart) {
  // Stateful GROUP BY window aggregate: kill a container mid-stream; the
  // restarted container must restore window state + watermark from the
  // changelog and finish with the same per-window results.
  auto run = [](bool inject_failure) -> std::set<std::string> {
    auto env = SamzaSqlEnvironment::Make();
    if (!workload::SetupPaperSources(*env, 4).ok()) std::abort();
    workload::OrdersGeneratorOptions options;
    options.num_products = 8;
    options.rowtime_step_ms = 200;
    workload::OrdersGenerator gen(*env, options);
    if (!gen.Produce(1200).ok()) std::abort();
    // Sentinels close all windows.
    auto schema = env->catalog->GetSource("Orders").value().schema;
    AvroRowSerde serde(schema);
    Producer producer(env->broker, env->clock);
    for (int32_t p = 0; p < 4; ++p) {
      Row row{Value(gen.last_rowtime() + 3'600'000), Value(int32_t{9999}),
              Value(int64_t{-1}), Value(int32_t{0}), Value("sentinel")};
      if (!producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok()) {
        std::abort();
      }
    }

    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.SetInt(cfg::kCommitEveryMessages, 40);
    QueryExecutor executor(env, defaults);
    auto submitted = executor.Execute(
        "SELECT STREAM productId, START(rowtime) AS ws, COUNT(*) AS c, "
        "SUM(units) AS su FROM Orders "
        "GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId");
    if (!submitted.ok()) std::abort();
    if (inject_failure) {
      JobRunner* job = executor.job(submitted.value().job_index);
      if (!job->container(0)->RunUntilCaughtUp(350).ok()) std::abort();
      if (!job->KillContainer(0).ok()) std::abort();
      if (!job->RestartContainer(0).ok()) std::abort();
    }
    if (!executor.RunJobsUntilQuiescent().ok()) std::abort();
    auto rows = executor.ReadOutputRows(submitted.value().output_topic);
    if (!rows.ok()) std::abort();
    std::set<std::string> distinct;
    for (const Row& r : rows.value()) {
      if (r[0] == Value(int32_t{9999})) continue;
      distinct.insert(RowToString(r));
    }
    return distinct;
  };

  std::set<std::string> clean = run(false);
  std::set<std::string> faulty = run(true);
  EXPECT_EQ(clean, faulty);
  EXPECT_GT(clean.size(), 20u);
}

}  // namespace
}  // namespace sqs::core
