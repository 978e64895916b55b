// Concurrency stress: containers of a SQL job running in parallel threads
// against the shared broker must produce exactly the serial/oracle results
// (broker and checkpoint-topic thread safety, per-container isolation).
#include <gtest/gtest.h>

#include <set>

#include "core/executor.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

// executor.threads sizes the one driver's pool, and a negative count
// surfaces as RunJobsUntilQuiescent's error.
TEST(SchedulerTest, NegativeThreadsSurfacesOnRun) {
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 4).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(1'000).ok());
  Config defaults;
  defaults.SetInt(cfg::kExecutorThreads, -1);
  QueryExecutor executor(env, defaults);
  auto submitted = executor.Execute("SELECT STREAM orderId FROM Orders");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor.RunJobsUntilQuiescent();
  ASSERT_FALSE(ran.ok());
  EXPECT_NE(ran.status().message().find("executor.threads must be >= 0"),
            std::string::npos)
      << ran.status().ToString();
}

// One worker is the debugging baseline: same results as the threaded
// default, just single-threaded.
TEST(SchedulerTest, OneWorkerMatchesThreadedDefault) {
  auto run_with = [](int64_t threads) {
    auto env = SamzaSqlEnvironment::Make();
    EXPECT_TRUE(workload::SetupPaperSources(*env, 4).ok());
    workload::OrdersGenerator gen(*env, {});
    EXPECT_TRUE(gen.Produce(5'000).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    if (threads > 0) defaults.SetInt(cfg::kExecutorThreads, threads);
    QueryExecutor executor(env, defaults);
    auto submitted = executor.Execute(
        "SELECT STREAM orderId, units FROM Orders WHERE units > 40");
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    auto ran = executor.RunJobsUntilQuiescent();
    EXPECT_TRUE(ran.ok()) << ran.status().ToString();
    auto rows = executor.ReadOutputRows(submitted.value().output_topic);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::multiset<std::string> out;
    for (const Row& r : rows.value()) out.insert(RowToString(r));
    return out;
  };
  std::multiset<std::string> one_worker = run_with(1);
  std::multiset<std::string> threaded = run_with(0);  // default
  EXPECT_FALSE(one_worker.empty());
  EXPECT_EQ(one_worker, threaded);
}

TEST(StressTest, ThreadedContainersMatchOracle) {
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 8).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(20'000).ok());

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 4);
  defaults.SetInt(cfg::kCommitEveryMessages, 500);
  QueryExecutor executor(env, defaults);
  auto submitted = executor.Execute(
      "SELECT STREAM orderId, units FROM Orders WHERE units > 40");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();

  JobRunner* job = executor.job(submitted.value().job_index);
  auto n = job->RunThreadedUntilQuiescent();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 20'000);

  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  auto oracle = executor.Execute("SELECT orderId, units FROM Orders WHERE units > 40");
  ASSERT_TRUE(oracle.ok());
  std::multiset<std::string> got, expected;
  for (const Row& r : rows) got.insert(RowToString(r));
  for (const Row& r : oracle.value().rows) expected.insert(RowToString(r));
  EXPECT_EQ(got, expected);
}

TEST(StressTest, ThreadedStatefulJoinMatchesOracle) {
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 8).ok());
  workload::OrdersGeneratorOptions options;
  options.num_products = 100;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(10'000).ok());
  ASSERT_TRUE(workload::ProduceProducts(*env, 100).ok());

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 4);
  QueryExecutor executor(env, defaults);
  auto submitted = executor.Execute(
      "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor.job(submitted.value().job_index);
  ASSERT_TRUE(job->RunThreadedUntilQuiescent().ok());

  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  auto oracle = executor.Execute(
      "SELECT Orders.orderId, Products.supplierId FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rows.size(), oracle.value().rows.size());
  std::multiset<std::string> got, expected;
  for (const Row& r : rows) got.insert(RowToString(r));
  for (const Row& r : oracle.value().rows) expected.insert(RowToString(r));
  EXPECT_EQ(got, expected);
}

TEST(StressTest, ManyQueriesShareOneEnvironment) {
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 4).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(2'000).ok());
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  QueryExecutor executor(env, defaults);
  // Ten jobs over the same input topic, each with its own checkpoint topic,
  // stores, and output.
  std::vector<std::string> outputs;
  for (int i = 0; i < 10; ++i) {
    auto submitted = executor.Execute(
        "SELECT STREAM orderId FROM Orders WHERE units > " + std::to_string(10 * i));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    outputs.push_back(submitted.value().output_topic);
  }
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  size_t previous = SIZE_MAX;
  for (int i = 0; i < 10; ++i) {
    auto rows = executor.ReadOutputRows(outputs[static_cast<size_t>(i)]).value();
    EXPECT_LE(rows.size(), previous);  // tighter filter -> fewer rows
    previous = rows.size();
  }
  EXPECT_LT(previous, 2000u);
}

}  // namespace
}  // namespace sqs::core
