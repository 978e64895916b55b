#include <gtest/gtest.h>

#include <random>
#include <set>

#include "sql/batch_eval.h"
#include "sql/functions.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"

namespace sqs::sql {
namespace {

using testutil::PaperCatalog;

std::string FunctionName(int32_t id) {
  const Function* fn = FunctionRegistry::Instance().Get(id);
  return fn ? fn->name : "";
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = PaperCatalog();
    planner_ = std::make_unique<QueryPlanner>(catalog_);
  }

  Result<LogicalNodePtr> Plan(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    if (!stmt.value().select) return Status::InvalidArgument("not a select");
    return planner_->Plan(*stmt.value().select);
  }

  LogicalNodePtr MustPlan(const std::string& sql) {
    auto plan = Plan(sql);
    if (!plan.ok()) {
      ADD_FAILURE() << "plan failed: " << plan.status().ToString() << "\n  " << sql;
      return nullptr;
    }
    return plan.value();
  }

  CatalogPtr catalog_;
  std::unique_ptr<QueryPlanner> planner_;
};

TEST_F(PlannerTest, SelectStarPlansScanProject) {
  auto plan = MustPlan("SELECT STREAM * FROM Orders");
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->kind, LogicalKind::kProject);
  EXPECT_EQ(plan->inputs[0]->kind, LogicalKind::kScan);
  EXPECT_EQ(plan->schema->num_fields(), 5u);
  EXPECT_TRUE(plan->is_stream);
  EXPECT_EQ(plan->rowtime_index, 0);
}

TEST_F(PlannerTest, FilterQueryShape) {
  auto plan = MustPlan(
      "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 25");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  ASSERT_EQ(plan->inputs[0]->kind, LogicalKind::kFilter);
  EXPECT_EQ(plan->inputs[0]->predicate->ToString(), "($3 > 25)");
  EXPECT_EQ(plan->schema->field(0).name, "rowtime");
  EXPECT_EQ(plan->schema->field(2).name, "units");
  EXPECT_EQ(plan->rowtime_index, 0);
}

TEST_F(PlannerTest, WithoutStreamKeywordPlanIsBatch) {
  auto plan = MustPlan("SELECT * FROM Orders WHERE units > 25");
  ASSERT_TRUE(plan);
  EXPECT_FALSE(plan->is_stream);
}

TEST_F(PlannerTest, UnknownSourceFails) {
  auto plan = Plan("SELECT STREAM * FROM Nope");
  EXPECT_EQ(plan.status().code(), ErrorCode::kNotFound);
}

TEST_F(PlannerTest, UnknownColumnFails) {
  EXPECT_FALSE(Plan("SELECT STREAM bogus FROM Orders").ok());
  EXPECT_FALSE(Plan("SELECT STREAM rowtime FROM Orders WHERE bogus > 1").ok());
}

TEST_F(PlannerTest, TypeErrorsRejected) {
  EXPECT_FALSE(Plan("SELECT STREAM pad + 1 FROM Orders").ok());
  EXPECT_FALSE(Plan("SELECT STREAM * FROM Orders WHERE pad > units").ok());
  EXPECT_FALSE(Plan("SELECT STREAM * FROM Orders WHERE units + 1").ok());
}

TEST_F(PlannerTest, StreamKeywordOnPureRelationFails) {
  auto plan = Plan("SELECT STREAM * FROM Products");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("stream source"), std::string::npos);
}

TEST_F(PlannerTest, AggregateWithoutWindowOnStreamFails) {
  auto plan = Plan("SELECT STREAM productId, COUNT(*) FROM Orders GROUP BY productId");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("window"), std::string::npos);
}

TEST_F(PlannerTest, AggregateWithoutWindowOnRelationIsFine) {
  auto plan = MustPlan("SELECT supplierId, COUNT(*) FROM Products GROUP BY supplierId");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->inputs[0]->kind, LogicalKind::kAggregate);
  EXPECT_EQ(plan->inputs[0]->group_window.type, GroupWindowSpec::Type::kNone);
}

TEST_F(PlannerTest, TumbleAggregateShape) {
  auto plan = MustPlan(
      "SELECT STREAM START(rowtime), COUNT(*) FROM Orders "
      "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  const LogicalNode& agg = *plan->inputs[0];
  ASSERT_EQ(agg.kind, LogicalKind::kAggregate);
  EXPECT_EQ(agg.group_window.type, GroupWindowSpec::Type::kTumble);
  EXPECT_EQ(agg.group_window.emit_ms, 3600000);
  EXPECT_EQ(agg.group_window.retain_ms, 3600000);
  EXPECT_EQ(agg.group_window.ts_index, 0);
  ASSERT_EQ(agg.aggs.size(), 1u);
  EXPECT_EQ(FunctionName(agg.aggs[0].func_id), "COUNT");
  // Output: [window_start, window_end, count]; project selects start + count.
  EXPECT_EQ(agg.schema->num_fields(), 3u);
}

TEST_F(PlannerTest, HopAggregateShape) {
  auto plan = MustPlan(
      "SELECT STREAM START(rowtime), END(rowtime), COUNT(*) FROM Orders "
      "GROUP BY HOP(rowtime, INTERVAL '30' MINUTE, INTERVAL '2' HOUR)");
  ASSERT_TRUE(plan);
  const LogicalNode& agg = *plan->inputs[0];
  EXPECT_EQ(agg.group_window.type, GroupWindowSpec::Type::kHop);
  EXPECT_EQ(agg.group_window.emit_ms, 1800000);
  EXPECT_EQ(agg.group_window.retain_ms, 7200000);
}

TEST_F(PlannerTest, FloorGroupByBecomesTumble) {
  auto plan = MustPlan(
      "SELECT STREAM FLOOR(rowtime TO HOUR), productId, COUNT(*), SUM(units) "
      "FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId");
  ASSERT_TRUE(plan);
  const LogicalNode& agg = *plan->inputs[0];
  ASSERT_EQ(agg.kind, LogicalKind::kAggregate);
  EXPECT_EQ(agg.group_window.type, GroupWindowSpec::Type::kTumble);
  EXPECT_EQ(agg.group_window.emit_ms, 3600000);
  ASSERT_EQ(agg.group_exprs.size(), 1u);  // productId (window handled apart)
  ASSERT_EQ(agg.aggs.size(), 2u);
  EXPECT_EQ(FunctionName(agg.aggs[0].func_id), "COUNT");
  EXPECT_EQ(FunctionName(agg.aggs[1].func_id), "SUM");
}

TEST_F(PlannerTest, NonGroupedColumnInSelectFails) {
  auto plan = Plan(
      "SELECT STREAM orderId, COUNT(*) FROM Orders "
      "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(PlannerTest, HavingBecomesFilterOverAggregate) {
  auto plan = MustPlan(
      "SELECT STREAM productId, COUNT(*) AS c FROM Orders "
      "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productId HAVING COUNT(*) > 2");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  ASSERT_EQ(plan->inputs[0]->kind, LogicalKind::kFilter);
  EXPECT_EQ(plan->inputs[0]->inputs[0]->kind, LogicalKind::kAggregate);
}

TEST_F(PlannerTest, HavingWithoutGroupByFails) {
  EXPECT_FALSE(Plan("SELECT STREAM * FROM Orders HAVING units > 2").ok());
}

TEST_F(PlannerTest, AggregateInWhereFails) {
  EXPECT_FALSE(
      Plan("SELECT STREAM * FROM Orders WHERE COUNT(*) > 2").ok());
}

TEST_F(PlannerTest, SlidingWindowShape) {
  auto plan = MustPlan(
      "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
      "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE PRECEDING) "
      "AS unitsLastFiveMinutes FROM Orders");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  const LogicalNode& win = *plan->inputs[0];
  ASSERT_EQ(win.kind, LogicalKind::kSlidingWindow);
  ASSERT_EQ(win.window_calls.size(), 1u);
  EXPECT_EQ(FunctionName(win.window_calls[0].func_id), "SUM");
  EXPECT_TRUE(win.window_calls[0].range_based);
  EXPECT_EQ(win.window_calls[0].preceding_ms, 300000);
  EXPECT_EQ(win.window_calls[0].ts_index, 0);
  EXPECT_EQ(plan->schema->field(3).name, "unitsLastFiveMinutes");
}

TEST_F(PlannerTest, MultipleWindowCallsShareNode) {
  auto plan = MustPlan(
      "SELECT STREAM units, "
      "SUM(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' "
      "MINUTE PRECEDING) AS s5, "
      "COUNT(*) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '1' "
      "HOUR PRECEDING) AS c60 FROM Orders");
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->inputs[0]->window_calls.size(), 2u);
}

TEST_F(PlannerTest, RangeWindowOverNonRowtimeFails) {
  auto plan = Plan(
      "SELECT STREAM SUM(units) OVER (ORDER BY orderId RANGE INTERVAL '5' MINUTE "
      "PRECEDING) FROM Orders");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("rowtime"), std::string::npos);
}

TEST_F(PlannerTest, StreamRelationJoinShape) {
  auto plan = MustPlan(
      "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, Orders.units, "
      "Products.supplierId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId");
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  const LogicalNode& join = *plan->inputs[0];
  ASSERT_EQ(join.kind, LogicalKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kStreamRelation);
  ASSERT_EQ(join.equi_keys.size(), 1u);
  EXPECT_EQ(join.equi_keys[0].first, 1);   // Orders.productId
  EXPECT_EQ(join.equi_keys[0].second, 0);  // Products.productId
  EXPECT_FALSE(join.residual);
  EXPECT_EQ(plan->schema->field(4).name, "supplierId");
}

TEST_F(PlannerTest, StreamStreamJoinShape) {
  auto plan = MustPlan(
      "SELECT STREAM GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime, "
      "PacketsR1.sourcetime, PacketsR1.packetId, "
      "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
      "FROM PacketsR1 JOIN PacketsR2 ON "
      "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
      "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
      "AND PacketsR1.packetId = PacketsR2.packetId");
  ASSERT_TRUE(plan);
  const LogicalNode& join = *plan->inputs[0];
  ASSERT_EQ(join.kind, LogicalKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kStreamStream);
  EXPECT_EQ(join.window_before_ms, 2000);
  EXPECT_EQ(join.window_after_ms, 2000);
  ASSERT_EQ(join.equi_keys.size(), 1u);
  EXPECT_EQ(join.equi_keys[0].first, 2);
  EXPECT_EQ(join.equi_keys[0].second, 2);
}

TEST_F(PlannerTest, StreamStreamJoinWithoutTimeBoundFails) {
  auto plan = Plan(
      "SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN PacketsR2 "
      "ON PacketsR1.packetId = PacketsR2.packetId");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("time bound"), std::string::npos);
}

TEST_F(PlannerTest, JoinWithoutEquiKeyFails) {
  EXPECT_FALSE(Plan(
                   "SELECT STREAM Orders.orderId FROM Orders JOIN Products ON "
                   "Orders.units > Products.supplierId")
                   .ok());
}

TEST_F(PlannerTest, AmbiguousColumnFails) {
  // productId exists in both Orders and Products.
  auto plan = Plan(
      "SELECT STREAM productId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(PlannerTest, JoinNameClashGetsQualifiedField) {
  auto plan = MustPlan(
      "SELECT STREAM Orders.rowtime FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId");
  ASSERT_TRUE(plan);
  const LogicalNode& join = *plan->inputs[0];
  // Products.productId collides with Orders.productId.
  EXPECT_TRUE(join.schema->FieldIndex("Products$productId").has_value());
}

TEST_F(PlannerTest, ViewInliningFromPaper) {
  // Listing 3: view + query over the view.
  auto script = ParseScript(
                    "CREATE VIEW HourlyOrderTotals (rowtime, productId, c, su) AS "
                    "SELECT FLOOR(rowtime TO HOUR), productId, COUNT(*), SUM(units) "
                    "FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId;")
                    .value();
  ASSERT_TRUE(catalog_
                  ->RegisterView(script[0].create_view->name,
                                 script[0].create_view->column_names,
                                 std::move(script[0].create_view->select))
                  .ok());
  auto plan = MustPlan(
      "SELECT STREAM rowtime, productId FROM HourlyOrderTotals WHERE c > 2 OR su > 10");
  ASSERT_TRUE(plan);
  EXPECT_TRUE(plan->is_stream);
  // Shape: Project <- Filter <- Project(rename) <- Project <- Aggregate ...
  EXPECT_EQ(plan->kind, LogicalKind::kProject);
  EXPECT_EQ(plan->schema->field(0).name, "rowtime");
}

TEST_F(PlannerTest, SubqueryEquivalentToView) {
  auto plan = MustPlan(
      "SELECT STREAM rowtime, productId FROM ("
      "SELECT FLOOR(rowtime TO HOUR) AS rowtime, productId, COUNT(*) AS c, "
      "SUM(units) AS su FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId) "
      "WHERE c > 2 OR su > 10");
  ASSERT_TRUE(plan);
  EXPECT_TRUE(plan->is_stream);
  EXPECT_EQ(plan->schema->num_fields(), 2u);
}

TEST_F(PlannerTest, ProjectionDroppingRowtimeDisablesTimeWindows) {
  // §7 item 2: dropping the timestamp prevents downstream time windows.
  auto plan = Plan(
      "SELECT STREAM COUNT(*) FROM (SELECT productId, units FROM Orders) "
      "GROUP BY TUMBLE(units, INTERVAL '1' HOUR)");
  ASSERT_FALSE(plan.ok());
}

// --- optimizer ---

class OptimizerTest : public PlannerTest {};

TEST_F(OptimizerTest, ConstantFolding) {
  auto plan = MustPlan("SELECT STREAM * FROM Orders WHERE units > 10 + 15");
  ASSERT_TRUE(plan);
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  EXPECT_GE(stats.constant_folds, 1);
  // Find the filter.
  LogicalNode* n = plan.get();
  while (n->kind != LogicalKind::kFilter) n = n->inputs[0].get();
  EXPECT_EQ(n->predicate->ToString(), "($3 > 25)");
}

TEST_F(OptimizerTest, RemovesIdentityProject) {
  auto plan = MustPlan("SELECT STREAM * FROM Orders");
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  EXPECT_EQ(stats.trivial_projects_removed, 1);
  EXPECT_EQ(plan->kind, LogicalKind::kScan);
  EXPECT_TRUE(plan->is_stream);  // streamness preserved on new root
}

TEST_F(OptimizerTest, MergesProjects) {
  auto plan = MustPlan(
      "SELECT STREAM rowtime FROM (SELECT rowtime, productId FROM Orders)");
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  EXPECT_GE(stats.projects_merged, 1);
  ASSERT_EQ(plan->kind, LogicalKind::kProject);
  EXPECT_EQ(plan->inputs[0]->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, PushesFilterBelowProject) {
  auto plan = MustPlan(
      "SELECT STREAM rowtime FROM (SELECT rowtime, units AS u FROM Orders) WHERE u > 5");
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  EXPECT_GE(stats.filters_pushed_below_project, 1);
  // The filter should now sit directly on the scan.
  LogicalNode* n = plan.get();
  while (n->kind != LogicalKind::kFilter) {
    ASSERT_FALSE(n->inputs.empty());
    n = n->inputs[0].get();
  }
  EXPECT_EQ(n->inputs[0]->kind, LogicalKind::kScan);
  EXPECT_EQ(n->predicate->ToString(), "($3 > 5)");
}

TEST_F(OptimizerTest, PushesLeftFilterIntoJoin) {
  auto plan = MustPlan(
      "SELECT STREAM Orders.orderId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId WHERE Orders.units > 50");
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  EXPECT_GE(stats.filters_pushed_into_join, 1);
  // Left input of the join should now be a Filter over the Orders scan.
  LogicalNode* n = plan.get();
  while (n->kind != LogicalKind::kJoin) n = n->inputs[0].get();
  EXPECT_EQ(n->inputs[0]->kind, LogicalKind::kFilter);
  EXPECT_EQ(n->inputs[0]->inputs[0]->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, DoesNotPushFilterIntoRelationSideOfStreamJoin) {
  auto plan = MustPlan(
      "SELECT STREAM Orders.orderId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId WHERE Products.supplierId > 5");
  OptimizerStats stats;
  plan = Optimize(plan, &stats);
  LogicalNode* n = plan.get();
  while (n->kind != LogicalKind::kJoin) n = n->inputs[0].get();
  // Relation side must remain a bare scan (bootstrap materialization).
  EXPECT_EQ(n->inputs[1]->kind, LogicalKind::kScan);
}

// Property: optimization preserves semantics on randomized data.
TEST_F(OptimizerTest, OptimizedPlanProducesSameResults) {
  const char* queries[] = {
      "SELECT rowtime, productId, units FROM Orders WHERE units > 25 + 25",
      "SELECT rowtime FROM (SELECT rowtime, units AS u FROM Orders) WHERE u > 50",
      "SELECT o.orderId, p.name FROM Orders o JOIN Products p ON "
      "o.productId = p.productId WHERE o.units > 30",
      "SELECT productId, COUNT(*), SUM(units) FROM Orders "
      "GROUP BY FLOOR(rowtime TO MINUTE), productId",
  };
  std::mt19937_64 rng(5);
  std::vector<Row> orders;
  for (int i = 0; i < 300; ++i) {
    orders.push_back({Value(static_cast<int64_t>(1000000 + rng() % 500000)),
                      Value(static_cast<int32_t>(rng() % 20)),
                      Value(static_cast<int64_t>(i)),
                      Value(static_cast<int32_t>(rng() % 100)),
                      Value(std::string("pad"))});
  }
  std::vector<Row> products;
  for (int p = 0; p < 20; ++p) {
    products.push_back({Value(static_cast<int32_t>(p)),
                        Value("product" + std::to_string(p)),
                        Value(static_cast<int32_t>(p % 5))});
  }
  TableProvider provider = [&](const SourceDef& src) -> Result<std::vector<Row>> {
    if (src.name == "Orders") return orders;
    if (src.name == "Products") return products;
    return Status::NotFound(src.name);
  };
  for (const char* sql : queries) {
    auto plan = MustPlan(sql);
    ASSERT_TRUE(plan) << sql;
    auto baseline = EvaluatePlan(*plan, provider);
    ASSERT_TRUE(baseline.ok()) << sql << ": " << baseline.status().ToString();
    auto optimized = Optimize(CloneLogical(*plan));
    auto opt_result = EvaluatePlan(*optimized, provider);
    ASSERT_TRUE(opt_result.ok()) << sql;
    // Compare as multisets (aggregates may reorder).
    auto key = [](const Row& r) { return RowToString(r); };
    std::multiset<std::string> a, b;
    for (const Row& r : baseline.value()) a.insert(key(r));
    for (const Row& r : opt_result.value()) b.insert(key(r));
    EXPECT_EQ(a, b) << sql;
  }
}

// --- batch evaluator semantics ---

class BatchEvalTest : public PlannerTest {
 protected:
  Result<std::vector<Row>> Run(const std::string& sql) {
    auto plan = Plan(sql);
    if (!plan.ok()) return plan.status();
    return EvaluatePlan(*plan.value(), provider_);
  }

  void SetUp() override {
    PlannerTest::SetUp();
    // Orders at minutes 0..9, product i%3, units 10*i.
    for (int i = 0; i < 10; ++i) {
      orders_.push_back({Value(int64_t{60000} * i), Value(static_cast<int32_t>(i % 3)),
                         Value(static_cast<int64_t>(i)), Value(static_cast<int32_t>(10 * i)),
                         Value("p")});
    }
    products_ = {{Value(int32_t{0}), Value("zero"), Value(int32_t{100})},
                 {Value(int32_t{1}), Value("one"), Value(int32_t{101})},
                 {Value(int32_t{2}), Value("two"), Value(int32_t{102})}};
    provider_ = [this](const SourceDef& src) -> Result<std::vector<Row>> {
      if (src.name == "Orders") return orders_;
      if (src.name == "Products") return products_;
      return Status::NotFound(src.name);
    };
  }

  std::vector<Row> orders_;
  std::vector<Row> products_;
  TableProvider provider_;
};

TEST_F(BatchEvalTest, FilterAndProject) {
  auto rows = Run("SELECT orderId, units FROM Orders WHERE units > 50").value();
  ASSERT_EQ(rows.size(), 4u);  // units 60,70,80,90
  EXPECT_EQ(rows[0][0], Value(int64_t{6}));
  EXPECT_EQ(rows[0][1], Value(int32_t{60}));
}

TEST_F(BatchEvalTest, GroupByAggregate) {
  auto rows =
      Run("SELECT productId, COUNT(*) AS c, SUM(units) AS su FROM Products "
          "JOIN Suppliers ON Products.supplierId = Suppliers.supplierId "
          "GROUP BY productId");
  // Suppliers table is empty (provider NotFound) — expect error.
  EXPECT_FALSE(rows.ok());
}

TEST_F(BatchEvalTest, TumblingAggregate) {
  // 5-minute tumbling count: minutes 0-4 -> 5 orders, minutes 5-9 -> 5 orders.
  auto rows = Run(
                  "SELECT START(rowtime) AS ws, COUNT(*) AS c, SUM(units) AS su "
                  "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '5' MINUTE)")
                  .value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(int64_t{0}));
  EXPECT_EQ(rows[0][1], Value(int64_t{5}));
  EXPECT_EQ(rows[0][2], Value(int64_t{0 + 10 + 20 + 30 + 40}));
  EXPECT_EQ(rows[1][0], Value(int64_t{300000}));
  EXPECT_EQ(rows[1][2], Value(int64_t{50 + 60 + 70 + 80 + 90}));
}

TEST_F(BatchEvalTest, HoppingAggregateRowInMultipleWindows) {
  // emit 5 min, retain 10 min: each row lands in 2 windows.
  auto rows = Run(
                  "SELECT START(rowtime) AS ws, END(rowtime) AS we, COUNT(*) AS c "
                  "FROM Orders GROUP BY HOP(rowtime, INTERVAL '5' MINUTE, "
                  "INTERVAL '10' MINUTE)")
                  .value();
  // Windows starting at -5, 0, 5 minutes (those covering data).
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value(int64_t{-300000}));
  EXPECT_EQ(rows[0][2], Value(int64_t{5}));  // minutes 0..4
  EXPECT_EQ(rows[1][0], Value(int64_t{0}));
  EXPECT_EQ(rows[1][2], Value(int64_t{10}));  // all ten minutes
  EXPECT_EQ(rows[2][0], Value(int64_t{300000}));
  EXPECT_EQ(rows[2][2], Value(int64_t{5}));  // minutes 5..9
  // END = START + retain.
  EXPECT_EQ(rows[1][1], Value(int64_t{600000}));
}

TEST_F(BatchEvalTest, GroupByKeyAndWindow) {
  auto rows = Run(
                  "SELECT productId, COUNT(*) AS c FROM Orders "
                  "GROUP BY FLOOR(rowtime TO HOUR), productId")
                  .value();
  // All rows are in hour 0; products 0,1,2 with counts 4,3,3.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], Value(int64_t{4}));
  EXPECT_EQ(rows[1][1], Value(int64_t{3}));
}

TEST_F(BatchEvalTest, SlidingWindowRange) {
  // 2-minute preceding sum of units per product.
  auto rows = Run(
                  "SELECT orderId, SUM(units) OVER (PARTITION BY productId ORDER BY "
                  "rowtime RANGE INTERVAL '3' MINUTE PRECEDING) AS s FROM Orders")
                  .value();
  ASSERT_EQ(rows.size(), 10u);
  // Product 0 orders at minutes 0,3,6,9 (units 0,30,60,90). 3-minute window
  // includes the previous order.
  EXPECT_EQ(rows[0][1], Value(int64_t{0}));        // only itself
  EXPECT_EQ(rows[3][1], Value(int64_t{0 + 30}));   // minute 3 includes minute 0
  EXPECT_EQ(rows[6][1], Value(int64_t{30 + 60}));  // minute 6 includes minute 3
  EXPECT_EQ(rows[9][1], Value(int64_t{60 + 90}));
}

TEST_F(BatchEvalTest, SlidingWindowRows) {
  auto rows = Run(
                  "SELECT orderId, COUNT(*) OVER (PARTITION BY productId ORDER BY "
                  "rowtime ROWS 1 PRECEDING) AS c FROM Orders")
                  .value();
  // First order of each product: window {self}; later: {previous, self}.
  EXPECT_EQ(rows[0][1], Value(int64_t{1}));
  EXPECT_EQ(rows[3][1], Value(int64_t{2}));
}

TEST_F(BatchEvalTest, StreamRelationJoin) {
  auto rows = Run(
                  "SELECT Orders.orderId, Products.name FROM Orders JOIN Products "
                  "ON Orders.productId = Products.productId WHERE Orders.units >= 80")
                  .value();
  ASSERT_EQ(rows.size(), 2u);  // orders 8 (product 2), 9 (product 0)
  EXPECT_EQ(rows[0][1], Value("two"));
  EXPECT_EQ(rows[1][1], Value("zero"));
}

TEST_F(BatchEvalTest, HavingFiltersGroups) {
  auto rows = Run(
                  "SELECT productId, COUNT(*) AS c FROM Orders "
                  "GROUP BY FLOOR(rowtime TO HOUR), productId HAVING COUNT(*) > 3")
                  .value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int32_t{0}));
  EXPECT_EQ(rows[0][1], Value(int64_t{4}));
}

TEST_F(BatchEvalTest, AvgMinMax) {
  auto rows = Run(
                  "SELECT MIN(units), MAX(units), AVG(units) FROM Orders "
                  "GROUP BY FLOOR(rowtime TO DAY)")
                  .value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int32_t{0}));
  EXPECT_EQ(rows[0][1], Value(int32_t{90}));
  EXPECT_EQ(rows[0][2], Value(45.0));
}

}  // namespace
}  // namespace sqs::sql
