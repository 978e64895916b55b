// Fused-pipeline equivalence suite: the fused mainline (sql.fusion=on, the
// default) must be byte-identical to the interpreted operator DAG
// (sql.fusion=off) on the same seeded inputs — including under exactly-once
// crash-replay at batch boundaries. Also unit-level coverage for the fusion
// planner (PlanFusedStages), the kernel's raw-byte predicate classification,
// and the serde layer's lazy projected decode.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/executor.h"
#include "sql/batch_eval.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

// ---------------------------------------------------------------------------
// End-to-end byte equivalence: fused vs interpreted.

// Runs `query` on a fresh seeded environment and returns the raw output
// bytes, per partition, in log order.
Result<std::vector<std::vector<Bytes>>> RunQueryRaw(
    const std::string& query, bool fusion, const std::string& out_format = "",
    int64_t orders = 600) {
  auto env = SamzaSqlEnvironment::Make();
  SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
  workload::OrdersGeneratorOptions options;
  options.num_products = 15;
  options.seed = 77;
  workload::OrdersGenerator gen(*env, options);
  SQS_ASSIGN_OR_RETURN(produced, gen.Produce(orders));
  (void)produced;

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  defaults.SetInt(cfg::kCommitEveryMessages, 64);
  if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
  if (!out_format.empty()) defaults.Set(sqlcfg::kOutputFormat, out_format);
  QueryExecutor executor(env, defaults);
  SQS_ASSIGN_OR_RETURN(submitted, executor.Execute(query));
  SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;

  const std::string& topic = submitted.output_topic;
  SQS_ASSIGN_OR_RETURN(nparts, env->broker->NumPartitions(topic));
  std::vector<std::vector<Bytes>> out(static_cast<size_t>(nparts));
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(end, env->broker->EndOffset({topic, p}));
    SQS_ASSIGN_OR_RETURN(msgs, env->broker->Fetch({topic, p}, 0,
                                                  static_cast<int32_t>(end)));
    for (const IncomingMessage& m : msgs) out[p].push_back(m.message.value);
  }
  return out;
}

struct FusionCase {
  const char* name;
  const char* query;
  const char* out_format = "";  // "" = avro
};

// Print a case as its name: gtest's default printer dumps the struct's raw
// bytes, pointers included, so the listed test names would change from run
// to run under ASLR.
void PrintTo(const FusionCase& fc, std::ostream* os) { *os << fc.name; }

class FusionByteEquivalence : public ::testing::TestWithParam<FusionCase> {};

TEST_P(FusionByteEquivalence, FusedOutputBytesMatchInterpreted) {
  const FusionCase& fc = GetParam();
  auto fused = RunQueryRaw(fc.query, /*fusion=*/true, fc.out_format);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  auto interpreted = RunQueryRaw(fc.query, /*fusion=*/false, fc.out_format);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();

  ASSERT_EQ(fused.value().size(), interpreted.value().size());
  size_t total = 0;
  for (size_t p = 0; p < fused.value().size(); ++p) {
    EXPECT_EQ(fused.value()[p], interpreted.value()[p])
        << "partition " << p << " of " << fc.query;
    total += fused.value()[p].size();
  }
  EXPECT_GT(total, 0u) << "query produced nothing: " << fc.query;
}

INSTANTIATE_TEST_SUITE_P(
    Queries, FusionByteEquivalence,
    ::testing::Values(
        // Identity projection over an identical schema: the passthrough path
        // forwards the original message bytes without any decode.
        FusionCase{"star_passthrough", "SELECT STREAM * FROM Orders"},
        // Passthrough + raw-byte predicate.
        FusionCase{"filter_passthrough",
                   "SELECT STREAM * FROM Orders WHERE units > 50"},
        FusionCase{"filter_project",
                   "SELECT STREAM orderId, units * 2 AS doubled FROM Orders "
                   "WHERE units > 50"},
        // Mixed raw + residual conjuncts, OR forces a residual predicate.
        FusionCase{"filter_compound",
                   "SELECT STREAM orderId FROM Orders WHERE units BETWEEN 20 "
                   "AND 60 AND productId IN (1, 3, 5) OR units = 99"},
        FusionCase{"strings_nullable",
                   "SELECT STREAM orderId, UPPER(pad) AS up FROM Orders "
                   "WHERE pad IS NOT NULL"},
        // Predicate rebasing through a subquery's projection.
        FusionCase{"subquery_rebase",
                   "SELECT STREAM big FROM (SELECT orderId AS big, units AS u "
                   "FROM Orders) WHERE u > 75"},
        FusionCase{"double_compare",
                   "SELECT STREAM orderId, CAST(units AS DOUBLE) / 4 AS q "
                   "FROM Orders WHERE CAST(units AS DOUBLE) / 4 > 12.25"},
        // Non-avro output exercises the re-serialize (non-passthrough) path
        // with a different sink encoding.
        FusionCase{"json_output",
                   "SELECT STREAM orderId, units FROM Orders WHERE units > 30",
                   "json"}),
    [](const ::testing::TestParamInfo<FusionCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Exactly-once crash-replay at batch boundaries.

TEST(FusionExactlyOnceTest, CrashReplayAtBatchBoundariesIsByteIdentical) {
  // Same fused query under exactly-once delivery, with and without a
  // mid-stream kill+restart: per-batch producer sequencing must make the
  // replayed log byte-identical to the clean run.
  auto run = [](bool inject_kill) -> Result<std::vector<std::vector<Bytes>>> {
    auto env = SamzaSqlEnvironment::Make();
    SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
    workload::OrdersGeneratorOptions options;
    options.num_products = 15;
    options.seed = 99;
    workload::OrdersGenerator gen(*env, options);
    SQS_ASSIGN_OR_RETURN(produced, gen.Produce(1000));
    (void)produced;

    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.SetInt(cfg::kCommitEveryMessages, 40);
    defaults.Set(cfg::kTaskDelivery, "exactly-once");
    defaults.Set(cfg::kCheckpointTopic, "__cp_fusion_eo");
    QueryExecutor executor(env, defaults);
    SQS_ASSIGN_OR_RETURN(
        submitted,
        executor.Execute("SELECT STREAM orderId, units * 2 AS doubled "
                         "FROM Orders WHERE units > 20"));
    if (inject_kill) {
      JobRunner* job = executor.job(submitted.job_index);
      // Kill mid-stream: positions/state since the last transactional
      // checkpoint die, with part of the batch's output already flushed.
      SQS_ASSIGN_OR_RETURN(caught, job->container(0)->RunUntilCaughtUp(250));
      (void)caught;
      SQS_RETURN_IF_ERROR(job->KillContainer(0));
      SQS_RETURN_IF_ERROR(job->RestartContainer(0));
    }
    SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;

    const std::string& topic = submitted.output_topic;
    SQS_ASSIGN_OR_RETURN(nparts, env->broker->NumPartitions(topic));
    std::vector<std::vector<Bytes>> out(static_cast<size_t>(nparts));
    for (int32_t p = 0; p < nparts; ++p) {
      SQS_ASSIGN_OR_RETURN(end, env->broker->EndOffset({topic, p}));
      SQS_ASSIGN_OR_RETURN(msgs, env->broker->Fetch({topic, p}, 0,
                                                    static_cast<int32_t>(end)));
      for (const IncomingMessage& m : msgs) out[p].push_back(m.message.value);
    }
    return out;
  };

  auto clean = run(false);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto faulty = run(true);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ASSERT_EQ(clean.value().size(), faulty.value().size());
  size_t total = 0;
  for (size_t p = 0; p < clean.value().size(); ++p) {
    EXPECT_EQ(clean.value()[p], faulty.value()[p]) << "partition " << p;
    total += clean.value()[p].size();
  }
  EXPECT_GT(total, 100u);
}

// ---------------------------------------------------------------------------
// Lazy decode: trailing malformed bytes after the last referenced column
// must not fail the fused path (the walk stops early by design).

TEST(FusionLazyDecodeTest, MalformedTrailingFieldsAreToleratedWhenUnreferenced) {
  auto run = [](bool fusion) -> Result<int64_t> {
    auto env = SamzaSqlEnvironment::Make();
    SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
    workload::OrdersGeneratorOptions options;
    options.seed = 5;
    workload::OrdersGenerator gen(*env, options);
    SQS_ASSIGN_OR_RETURN(produced, gen.Produce(100));
    (void)produced;

    // A record whose rowtime/productId prefix is valid avro but whose tail
    // (orderId onward) is garbage: full deserialization fails, a projected
    // decode of fields {rowtime, productId} never reads that far.
    {
      auto schema = env->catalog->GetSource("Orders").value().schema;
      auto prefix = Schema::Make(
          "OrdersPrefix", {schema->field(0), schema->field(1)});
      AvroRowSerde prefix_serde(prefix);
      Bytes value = prefix_serde.SerializeToBytes(
          {Value(int64_t{1'000}), Value(int32_t{3})});
      value.push_back(0xff);  // dangling varint continuation: poison tail
      Producer raw(env->broker, env->clock);
      SQS_ASSIGN_OR_RETURN(off, raw.SendTo({"Orders", 0}, Bytes{}, value));
      (void)off;
    }

    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 1);
    defaults.Set(cfg::kTaskErrorPolicy, "skip");
    if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
    QueryExecutor executor(env, defaults);
    SQS_ASSIGN_OR_RETURN(
        submitted,
        executor.Execute("SELECT STREAM rowtime, productId FROM Orders"));
    SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;
    SQS_ASSIGN_OR_RETURN(rows, executor.ReadOutputRows(submitted.output_topic));
    return static_cast<int64_t>(rows.size());
  };

  // Fused: the poison tail is never decoded, all 101 records come through.
  auto fused = run(true);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused.value(), 101);
  // Interpreted: the scan's full decode hits the garbage and skips the row.
  auto interpreted = run(false);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  EXPECT_EQ(interpreted.value(), 100);
}

}  // namespace
}  // namespace sqs::core

// ---------------------------------------------------------------------------
// Unit tests for the fusion planner and kernel (sql namespace).

namespace sqs::sql {
namespace {

LogicalNodePtr PlanQuery(const CatalogPtr& catalog, const std::string& text) {
  auto stmt = ParseStatement(text).value();
  QueryPlanner planner(catalog);
  auto plan = planner.Plan(*stmt.select).value();
  return Optimize(plan);
}

TEST(PlanFusedStagesTest, FusesTerminalFilterProjectChain) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM orderId, units * 2 AS doubled "
                        "FROM Orders WHERE units > 50");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  const FusedStageSpec& spec = specs[0];
  EXPECT_EQ(spec.first_op, 0);
  EXPECT_EQ(spec.last_op, 2);
  EXPECT_TRUE(spec.reaches_root);
  EXPECT_EQ(spec.label, "fused<op0..op2>");
  ASSERT_EQ(spec.predicates.size(), 1u);
  ASSERT_EQ(spec.projections.size(), 2u);
  // Orders scan schema: rowtime(0), productId(1), orderId(2), units(3), pad(4).
  // Referenced: rowtime (event time), orderId and units; not productId/pad.
  ASSERT_EQ(spec.referenced.size(), 5u);
  EXPECT_TRUE(spec.referenced[0]);
  EXPECT_FALSE(spec.referenced[1]);
  EXPECT_TRUE(spec.referenced[2]);
  EXPECT_TRUE(spec.referenced[3]);
  EXPECT_FALSE(spec.referenced[4]);
}

TEST(PlanFusedStagesTest, BareScanFusesAsSingleOpStage) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog, "SELECT STREAM * FROM Orders");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_TRUE(specs[0].projections.empty()) << "identity projection expected";
  EXPECT_TRUE(specs[0].predicates.empty());
}

TEST(PlanFusedStagesTest, JoinPlansAreNotFused) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM Orders.orderId, Products.supplierId "
                        "FROM Orders JOIN Products ON "
                        "Orders.productId = Products.productId");
  EXPECT_TRUE(PlanFusedStages(*plan).empty());
}

TEST(PlanFusedStagesTest, PredicatesRebaseThroughSubqueryProjection) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM big FROM (SELECT orderId AS big, "
                        "units AS u FROM Orders) WHERE u > 75");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  ASSERT_EQ(specs[0].predicates.size(), 1u);
  // "u" is the inner projection's alias for scan column units (index 3):
  // after rebasing, the predicate references the scan schema directly.
  std::vector<int> cols;
  CollectColumnIndices(*specs[0].predicates[0], cols);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0], 3);
  // Output projection "big" maps to scan column orderId (index 2).
  ASSERT_EQ(specs[0].projections.size(), 1u);
}

TEST(FusedStageKernelTest, ClassifiesColumnLiteralComparisonsAsRawPredicates) {
  auto catalog = testutil::PaperCatalog();
  auto serde = std::make_shared<AvroRowSerde>(
      catalog->GetSource("Orders").value().schema);
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM * FROM Orders "
                        "WHERE units > 10 AND pad = 'x' AND 5 < orderId");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  auto kernel = FusedStageKernel::Compile(specs[0], serde, /*passthrough=*/false);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // All three conjuncts compare a column with a literal (one flipped), so
  // all evaluate on raw bytes during the decode walk.
  EXPECT_EQ(kernel.value().num_raw_predicates(), 3u);
}

TEST(FusedStageKernelTest, NonComparableConjunctsFallBackToResidual) {
  auto catalog = testutil::PaperCatalog();
  auto serde = std::make_shared<AvroRowSerde>(
      catalog->GetSource("Orders").value().schema);
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM * FROM Orders "
                        "WHERE units + 1 > 10 OR productId = 2");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  auto kernel = FusedStageKernel::Compile(specs[0], serde, /*passthrough=*/false);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // The lone conjunct is a disjunction over an arithmetic expression: not a
  // raw column/literal comparison, so it compiles to a residual predicate.
  EXPECT_EQ(kernel.value().num_raw_predicates(), 0u);
}

TEST(FusedStageKernelTest, RawPredicateShortCircuitsBeforeFullDecode) {
  auto catalog = testutil::PaperCatalog();
  auto schema = catalog->GetSource("Orders").value().schema;
  auto serde = std::make_shared<AvroRowSerde>(schema);
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM orderId FROM Orders WHERE productId = 7");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  auto kernel = FusedStageKernel::Compile(specs[0], serde, /*passthrough=*/false);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ASSERT_EQ(kernel.value().num_raw_predicates(), 1u);

  AvroRowSerde full(schema);
  Bytes pass = full.SerializeToBytes({Value(int64_t{10}), Value(int32_t{7}),
                                      Value(int64_t{1}), Value(int32_t{4}),
                                      Value("p")});
  auto hit = kernel.value().Apply(pass);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().pass);
  ASSERT_EQ(hit.value().row.size(), 1u);
  EXPECT_EQ(hit.value().row[0], Value(int64_t{1}));

  Bytes fail = full.SerializeToBytes({Value(int64_t{10}), Value(int32_t{8}),
                                      Value(int64_t{1}), Value(int32_t{4}),
                                      Value("p")});
  auto miss = kernel.value().Apply(fail);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss.value().pass);
}

TEST(DeserializeProjectedTest, DecodesWantedPrefixAndToleratesPoisonTail) {
  auto catalog = testutil::PaperCatalog();
  auto schema = catalog->GetSource("Orders").value().schema;
  AvroRowSerde serde(schema);
  Bytes bytes = serde.SerializeToBytes({Value(int64_t{99}), Value(int32_t{2}),
                                        Value(int64_t{5}), Value(int32_t{7}),
                                        Value("pad")});

  // Only rowtime + orderId wanted: productId is skipped (stays Null), units
  // and pad are never even walked.
  std::vector<bool> wanted{true, false, true, false, false};
  BytesReader in(bytes);
  auto row = serde.DeserializeProjected(in, wanted);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row.value().size(), 5u);
  EXPECT_EQ(row.value()[0], Value(int64_t{99}));
  EXPECT_TRUE(row.value()[1].is_null());
  EXPECT_EQ(row.value()[2], Value(int64_t{5}));
  EXPECT_TRUE(row.value()[3].is_null());
  EXPECT_TRUE(row.value()[4].is_null());

  // Corrupt everything after orderId: projected decode still succeeds, the
  // full decode fails.
  Bytes truncated(bytes.begin(), bytes.begin() + 4);  // rowtime+productId+orderId
  truncated.push_back(0xff);
  BytesReader in2(truncated);
  auto lazy = serde.DeserializeProjected(in2, wanted);
  EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
  BytesReader in3(truncated);
  EXPECT_FALSE(serde.Deserialize(in3).ok());
}

}  // namespace
}  // namespace sqs::sql
