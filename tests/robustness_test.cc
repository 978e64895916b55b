// Robustness: the front end must fail cleanly (Status, never a crash or
// hang) on arbitrary garbage, the optimizer must be idempotent, and the
// runtime's at-least-once delivery contract must hold across crashes.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "log/fault_broker.h"
#include "log/producer.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "task/runner.h"

namespace sqs::sql {
namespace {

TEST(RobustnessTest, LexerSurvivesRandomBytes) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 2000; ++i) {
    std::string input;
    size_t len = rng() % 60;
    for (size_t j = 0; j < len; ++j) {
      input += static_cast<char>(32 + rng() % 95);  // printable ASCII
    }
    (void)Lex(input);  // must return, ok or not — never crash
  }
}

TEST(RobustnessTest, ParserSurvivesRandomTokenSoup) {
  static const char* kTokens[] = {
      "SELECT", "STREAM", "FROM",  "WHERE",   "GROUP",  "BY",    "HAVING", "JOIN",
      "ON",     "AND",    "OR",    "NOT",     "(",      ")",     ",",      "*",
      "+",      "-",      "/",     "=",       "<",      ">",     "Orders", "units",
      "42",     "'str'",  "TUMBLE", "INTERVAL", "'1'",  "HOUR",  "OVER",   "AS",
      "CASE",   "WHEN",   "THEN",  "END",     "BETWEEN", "IN",   "IS",     "NULL",
  };
  std::mt19937_64 rng(23);
  for (int i = 0; i < 3000; ++i) {
    std::string input;
    size_t len = 1 + rng() % 14;
    for (size_t j = 0; j < len; ++j) {
      input += kTokens[rng() % (sizeof(kTokens) / sizeof(kTokens[0]))];
      input += ' ';
    }
    (void)ParseStatement(input);  // Status on failure, never a crash
  }
}

TEST(RobustnessTest, PlannerSurvivesParseableGarbage) {
  // Statements that parse but should be rejected (or planned) gracefully.
  auto catalog = testutil::PaperCatalog();
  QueryPlanner planner(catalog);
  const char* queries[] = {
      "SELECT STREAM units + pad FROM Orders",
      "SELECT STREAM SUM(units) FROM Orders",
      "SELECT STREAM * FROM Orders GROUP BY TUMBLE(pad, INTERVAL '1' HOUR)",
      "SELECT STREAM * FROM Orders JOIN Orders ON 1 = 1",
      "SELECT STREAM x.y FROM Orders",
      "SELECT STREAM units FROM Orders HAVING units > 1",
      "SELECT STREAM COUNT(units, units) FROM Orders GROUP BY "
      "TUMBLE(rowtime, INTERVAL '1' HOUR)",
      "SELECT STREAM * FROM Products JOIN Orders ON "
      "Products.productId = Orders.productId",
      "SELECT STREAM GREATEST(units) FROM Orders",
      "SELECT STREAM CASE WHEN units THEN 1 END FROM Orders",
  };
  for (const char* sql : queries) {
    auto stmt = ParseStatement(sql);
    if (!stmt.ok()) continue;  // some are parse errors: fine
    (void)planner.Plan(*stmt.value().select);  // must not crash
  }
}

TEST(RobustnessTest, OptimizerIsIdempotent) {
  auto catalog = testutil::PaperCatalog();
  QueryPlanner planner(catalog);
  const char* queries[] = {
      "SELECT STREAM * FROM Orders WHERE units > 10 + 15 AND productId < 100 - 1",
      "SELECT STREAM rowtime FROM (SELECT rowtime, units AS u FROM Orders) WHERE u > 5",
      "SELECT STREAM o.orderId FROM Orders o JOIN Products p ON "
      "o.productId = p.productId WHERE o.units > 50 AND p.supplierId > 3",
      "SELECT STREAM productId, COUNT(*) FROM Orders "
      "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productId HAVING COUNT(*) > 1",
  };
  for (const char* sql : queries) {
    auto stmt = ParseStatement(sql).value();
    auto plan = planner.Plan(*stmt.select).value();
    OptimizerStats first;
    plan = Optimize(plan, &first);
    std::string once = plan->ToString();
    OptimizerStats second;
    plan = Optimize(plan, &second);
    EXPECT_EQ(second.Total(), 0) << sql << "\nafter first pass:\n" << once;
    EXPECT_EQ(plan->ToString(), once) << sql;
  }
}

TEST(RobustnessTest, DeepExpressionNesting) {
  // 200 nested parens/operators: recursion depth must be handled.
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  auto parsed = ParseExpression(expr);
  ASSERT_TRUE(parsed.ok());
  auto resolver = [](const std::string&,
                     const std::string& c) -> Result<std::pair<int, FieldType>> {
    return Status::NotFound(c);
  };
  ASSERT_TRUE(ResolveExpr(*parsed.value(), resolver, false).ok());
  EXPECT_EQ(EvalExpr(*parsed.value(), {}), Value(int64_t{201}));
  auto compiled = CompiledExpr::Compile(*parsed.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.value().Eval({}), Value(int64_t{201}));
}

TEST(RobustnessTest, VeryLongSelectList) {
  std::string sql = "SELECT STREAM units";
  for (int i = 0; i < 300; ++i) sql += ", units + " + std::to_string(i) + " AS c" + std::to_string(i);
  sql += " FROM Orders";
  auto catalog = testutil::PaperCatalog();
  QueryPlanner planner(catalog);
  auto stmt = ParseStatement(sql);
  ASSERT_TRUE(stmt.ok());
  auto plan = planner.Plan(*stmt.value().select);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->schema->num_fields(), 301u);
}

}  // namespace
}  // namespace sqs::sql

// ---------------------------------------------------------------------------
// At-least-once equivalence under crashes (docs/FAULT_TOLERANCE.md): a crash
// between the output flush and the checkpoint write replays the
// already-flushed batch, so raw output contains duplicates — but deduped
// output is exactly the uninterrupted run. (The windowed-SQL variant, where
// dedup is by window key, lives in recovery_test.cc.)
// ---------------------------------------------------------------------------

namespace sqs {
namespace {

// Tags each output with its input coordinates so replayed messages are
// byte-identical to their first delivery (dedup by content is exact).
class AloEchoTask : public StreamTask {
 public:
  Status Process(const IncomingMessage& msg, MessageCollector& collector,
                 TaskCoordinator&) override {
    std::string tagged = FromBytes(msg.message.value) + "@" + msg.origin.topic + ":" +
                         std::to_string(msg.origin.partition) + ":" +
                         std::to_string(msg.offset);
    return collector.SendToPartition("out", msg.origin.partition, msg.message.key,
                                     ToBytes(tagged));
  }
};

TEST(AtLeastOnceTest, CrashBetweenOutputFlushAndCheckpointReplaysDuplicates) {
  const TaskFactory factory = [] { return std::make_unique<AloEchoTask>(); };

  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("in", {.num_partitions = 2}).ok());
  ASSERT_TRUE(inner->CreateTopic("out", {.num_partitions = 2}).ok());
  FaultPolicy policy;
  policy.topics = {"__cp_alo"};  // only checkpoint writes can fail
  auto fault = std::make_shared<FaultInjectingBroker>(inner, policy);

  Producer p(fault);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)),
                       ToBytes("m" + std::to_string(i)))
                    .ok());
  }

  Config c;
  c.Set(cfg::kJobName, "alo-job");
  c.Set(cfg::kTaskInputs, "in");
  c.Set(cfg::kCheckpointTopic, "__cp_alo");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kCommitEveryMessages, 10);
  JobRunner runner(fault, c, factory);
  ASSERT_TRUE(runner.Start().ok());

  // The first commit's checkpoint append fails (no retries configured), so
  // the container crashes with its outputs already flushed to the broker.
  fault->FailNextAppends(1);
  auto crashed = runner.RunThreadedUntilQuiescent(1);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), ErrorCode::kUnavailable);

  auto read_out = [&] {
    std::vector<std::string> out;
    for (int32_t part = 0; part < 2; ++part) {
      int64_t end = inner->EndOffset({"out", part}).value();
      if (end == 0) continue;
      auto batch = inner->Fetch({"out", part}, 0, static_cast<int32_t>(end)).value();
      for (const auto& m : batch) out.push_back(FromBytes(m.message.value));
    }
    return out;
  };
  size_t flushed_before_crash = read_out().size();
  EXPECT_GE(flushed_before_crash, 10u);  // the whole uncommitted batch

  // Recover (no checkpoint landed → replay from the beginning) and finish.
  ASSERT_TRUE(runner.KillContainer(0).ok());
  ASSERT_TRUE(runner.RestartContainer(0).ok());
  auto finished = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();

  std::vector<std::string> out = read_out();
  // Duplicates: everything flushed before the crash was replayed.
  EXPECT_GE(out.size(), 100u + flushed_before_crash);
  // Equivalence: deduped output is exactly one tag per input message.
  std::set<std::string> deduped(out.begin(), out.end());
  EXPECT_EQ(deduped.size(), 100u);
}

// The exactly-once twin of the test above: same job, same crash between the
// output flush and the checkpoint write, but task.delivery=exactly-once. The
// replayed batch re-sends the same (pid, epoch, seq) stamps, the broker
// drops them as duplicates, and the raw output — no dedup applied — is
// byte-equal to a crash-free run: exactly one tag per input message.
TEST(ExactlyOnceTest, CrashBetweenOutputFlushAndCheckpointDedupsAtBroker) {
  const TaskFactory factory = [] { return std::make_unique<AloEchoTask>(); };

  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("in", {.num_partitions = 2}).ok());
  ASSERT_TRUE(inner->CreateTopic("out", {.num_partitions = 2}).ok());
  FaultPolicy policy;
  policy.topics = {"__cp_eo"};  // only checkpoint writes can fail
  auto fault = std::make_shared<FaultInjectingBroker>(inner, policy);

  Producer p(fault);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)),
                       ToBytes("m" + std::to_string(i)))
                    .ok());
  }

  Config c;
  c.Set(cfg::kJobName, "eo-job");
  c.Set(cfg::kTaskInputs, "in");
  c.Set(cfg::kCheckpointTopic, "__cp_eo");
  c.Set(cfg::kTaskDelivery, "exactly-once");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kCommitEveryMessages, 10);
  JobRunner runner(fault, c, factory);
  ASSERT_TRUE(runner.Start().ok());

  // The first transactional commit fails, crashing the container with its
  // outputs already flushed — the same crash point as the at-least-once run.
  fault->FailNextAppends(1);
  auto crashed = runner.RunThreadedUntilQuiescent(1);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), ErrorCode::kUnavailable);

  auto read_out = [&] {
    std::vector<std::string> out;
    for (int32_t part = 0; part < 2; ++part) {
      int64_t end = inner->EndOffset({"out", part}).value();
      if (end == 0) continue;
      auto batch = inner->Fetch({"out", part}, 0, static_cast<int32_t>(end)).value();
      for (const auto& m : batch) out.push_back(FromBytes(m.message.value));
    }
    return out;
  };
  size_t flushed_before_crash = read_out().size();
  EXPECT_GE(flushed_before_crash, 10u);

  ASSERT_TRUE(runner.KillContainer(0).ok());
  ASSERT_TRUE(runner.RestartContainer(0).ok());
  auto finished = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();

  std::vector<std::string> out = read_out();
  // No checkpoint landed, so the whole input replays — and every replayed
  // send dedups at the broker. Raw output: exactly 100, zero duplicates.
  EXPECT_EQ(out.size(), 100u);
  std::set<std::string> deduped(out.begin(), out.end());
  EXPECT_EQ(deduped.size(), 100u);
  EXPECT_GE(inner->dups_dropped(), static_cast<int64_t>(flushed_before_crash));

  // Every output record left the idempotent producer with a valid CRC stamp.
  for (int32_t part = 0; part < 2; ++part) {
    auto batch = inner->Fetch({"out", part}, 0, 1000).value();
    for (const auto& m : batch) {
      EXPECT_TRUE(m.message.has_crc);
      EXPECT_TRUE(MessageCrcValid(m.message));
      EXPECT_NE(m.message.producer_id, 0u);
    }
  }
}

}  // namespace
}  // namespace sqs
