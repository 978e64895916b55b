// Fused-pipeline equivalence suite: the fused mainline (sql.fusion=on, the
// default) must be byte-identical to the interpreted operator DAG
// (sql.fusion=off) on the same seeded inputs — including under exactly-once
// crash-replay at batch boundaries. Also unit-level coverage for the fusion
// planner (PlanFusedStages), the kernel's raw-byte predicate classification,
// and the serde layer's lazy projected decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/executor.h"
#include "ops/router.h"
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

struct FusionCase {
  const char* name;
  const char* query;
  const char* out_format = "";  // "" = avro
  int32_t products = 0;         // Products relation rows (0 = none produced)
  const char* state_serde = "";  // "" = the default (reflective)
  int out_key_index = -1;       // >= 0: keyed output on that column
  // Run the job to quiescence over the first half of the orders, then
  // upsert the Products relation (changed and new rows) and run the rest.
  bool upsert_between_runs = false;
};

// Print a case as its name: gtest's default printer dumps the struct's raw
// bytes, pointers included, so the listed test names would change from run
// to run under ASLR.
void PrintTo(const FusionCase& fc, std::ostream* os) { *os << fc.name; }

// Reads a topic's raw value bytes, per partition, in log order.
Result<std::vector<std::vector<Bytes>>> ReadTopicBytes(const Broker& broker,
                                                       const std::string& topic) {
  SQS_ASSIGN_OR_RETURN(nparts, broker.NumPartitions(topic));
  std::vector<std::vector<Bytes>> out(static_cast<size_t>(nparts));
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(end, broker.EndOffset({topic, p}));
    SQS_ASSIGN_OR_RETURN(msgs, broker.Fetch({topic, p}, 0, static_cast<int32_t>(end)));
    for (const IncomingMessage& m : msgs) out[p].push_back(m.message.value);
  }
  return out;
}

// Products rows that change the supplier of products 0..4 and add products
// the first run missed (ids `first`..`first`+4).
Status UpsertProducts(SamzaSqlEnvironment& env, int32_t first) {
  Producer producer(env.broker, env.clock);
  AvroRowSerde serde(env.catalog->GetSource("Products").value().schema);
  auto send = [&](int32_t id, int32_t supplier) {
    Row row{Value(id), Value("updated-" + std::to_string(id)), Value(supplier)};
    return producer.Send("Products", EncodeOrderedKey(row[0]),
                         serde.SerializeToBytes(row)).status();
  };
  for (int32_t id = 0; id < 5; ++id) SQS_RETURN_IF_ERROR(send(id, 40 + id));
  for (int32_t id = first; id < first + 5; ++id) SQS_RETURN_IF_ERROR(send(id, 7));
  return Status::Ok();
}

// Runs the case's query on a fresh seeded environment and returns the raw
// output bytes, per partition, in log order.
Result<std::vector<std::vector<Bytes>>> RunQueryRaw(const FusionCase& fc, bool fusion) {
  constexpr int64_t kOrders = 600;
  auto env = SamzaSqlEnvironment::Make();
  SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
  if (fc.products > 0) {
    SQS_RETURN_IF_ERROR(workload::ProduceProducts(*env, fc.products));
  }
  workload::OrdersGeneratorOptions options;
  options.num_products = 15;
  options.seed = 77;
  workload::OrdersGenerator gen(*env, options);
  SQS_ASSIGN_OR_RETURN(produced,
                       gen.Produce(fc.upsert_between_runs ? kOrders / 2 : kOrders));
  (void)produced;

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  defaults.SetInt(cfg::kCommitEveryMessages, 64);
  if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
  if (*fc.out_format != '\0') defaults.Set(sqlcfg::kOutputFormat, fc.out_format);
  if (*fc.state_serde != '\0') defaults.Set(sqlcfg::kStateSerde, fc.state_serde);
  if (fc.out_key_index >= 0) defaults.SetInt(sqlcfg::kOutputKeyIndex, fc.out_key_index);
  QueryExecutor executor(env, defaults);
  SQS_ASSIGN_OR_RETURN(submitted, executor.Execute(fc.query));
  SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;
  if (fc.upsert_between_runs) {
    SQS_RETURN_IF_ERROR(UpsertProducts(*env, fc.products));
    SQS_ASSIGN_OR_RETURN(rest, gen.Produce(kOrders / 2));
    (void)rest;
    SQS_ASSIGN_OR_RETURN(requiesced, executor.RunJobsUntilQuiescent());
    (void)requiesced;
  }
  return ReadTopicBytes(*env->broker, submitted.output_topic);
}

class FusionByteEquivalence : public ::testing::TestWithParam<FusionCase> {};

TEST_P(FusionByteEquivalence, FusedOutputBytesMatchInterpreted) {
  const FusionCase& fc = GetParam();
  auto fused = RunQueryRaw(fc, /*fusion=*/true);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  auto interpreted = RunQueryRaw(fc, /*fusion=*/false);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();

  ASSERT_EQ(fused.value().size(), interpreted.value().size());
  size_t total = 0;
  for (size_t p = 0; p < fused.value().size(); ++p) {
    EXPECT_EQ(fused.value()[p], interpreted.value()[p])
        << "partition " << p << " of " << fc.query;
    total += fused.value()[p].size();
  }
  EXPECT_GT(total, 0u) << "query produced nothing: " << fc.query;
  if (fc.upsert_between_runs) {
    // The second run joined against the upserted relation rows.
    const std::string marker = "updated-";
    bool seen = false;
    for (const auto& partition : fused.value()) {
      for (const Bytes& value : partition) {
        seen = seen || std::search(value.begin(), value.end(), marker.begin(),
                                   marker.end()) != value.end();
      }
    }
    EXPECT_TRUE(seen) << "no output row carries an upserted relation row";
  }
}

// The join cases' ON clause (Orders over 15 products).
#define SQS_ORDERS_JOIN_PRODUCTS \
  " FROM Orders JOIN Products ON Orders.productId = Products.productId"

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
                   "json"},
        // Fused stream-relation joins: one stage with the relation probe.
        FusionCase{"join_plain",
                   "SELECT STREAM Orders.orderId, Products.name"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 15},
        // The perfbench join query (Figure 5c).
        FusionCase{"join_benchmark",
                   "SELECT STREAM Orders.rowtime, Orders.orderId, "
                   "Orders.productId, Orders.units, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 15},
        // Identity above the join: the joined row is the output.
        FusionCase{"join_star", "SELECT STREAM *" SQS_ORDERS_JOIN_PRODUCTS, "", 15},
        // Pushed below the join into the stream prefix's kernel.
        FusionCase{"join_filter_below",
                   "SELECT STREAM Orders.orderId, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS " WHERE Orders.units > 40", "", 15},
        // References the relation, so it stays above the join.
        FusionCase{"join_filter_above",
                   "SELECT STREAM Orders.orderId, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS
                   " WHERE Products.supplierId > 10 OR Orders.units < 5", "", 15},
        FusionCase{"join_residual",
                   "SELECT STREAM Orders.orderId, Orders.units, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS
                   " AND Orders.units > Products.supplierId", "", 15},
        FusionCase{"join_expression_projection",
                   "SELECT STREAM Orders.orderId, "
                   "Orders.units + Products.supplierId AS blend, "
                   "UPPER(Products.name) AS up" SQS_ORDERS_JOIN_PRODUCTS, "", 15},
        // A projecting subquery as the stream input: the prefix row is not
        // the scan row, and its unused column is never computed.
        FusionCase{"join_subquery_prefix",
                   "SELECT STREAM o.oid, o.u2, Products.name FROM (SELECT "
                   "orderId AS oid, productId AS pid, units * 2 AS u2, "
                   "CHAR_LENGTH(pad) AS len FROM Orders WHERE units > 10) AS o "
                   "JOIN Products ON o.pid = Products.productId", "", 15},
        FusionCase{"join_keyed_output",
                   "SELECT STREAM Orders.orderId, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 15, "", 1},
        FusionCase{"join_json_output",
                   "SELECT STREAM Orders.orderId, Products.name"
                   SQS_ORDERS_JOIN_PRODUCTS, "json", 15},
        FusionCase{"join_avro_state_serde",
                   "SELECT STREAM Orders.orderId, Products.name, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 15, "avro"},
        // Products 0..9 only: a third of the orders miss the relation.
        FusionCase{"join_inner_misses",
                   "SELECT STREAM Orders.orderId, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 10},
        FusionCase{"join_upsert_between_runs",
                   "SELECT STREAM Orders.orderId, Products.name, Products.supplierId"
                   SQS_ORDERS_JOIN_PRODUCTS, "", 10, "", -1, true}),
    [](const ::testing::TestParamInfo<FusionCase>& info) {
      return info.param.name;
    });

#undef SQS_ORDERS_JOIN_PRODUCTS

// ---------------------------------------------------------------------------
// Exactly-once crash-replay at batch boundaries.

// Runs `query` under exactly-once delivery, optionally killing and
// restarting container 0 mid-stream: positions/state since the last
// transactional checkpoint die, with part of the batch's output already
// flushed.
Result<std::vector<std::vector<Bytes>>> RunExactlyOnce(const std::string& query,
                                                       int32_t products, bool fusion,
                                                       bool inject_kill) {
  auto env = SamzaSqlEnvironment::Make();
  SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
  if (products > 0) SQS_RETURN_IF_ERROR(workload::ProduceProducts(*env, products));
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
  if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
  QueryExecutor executor(env, defaults);
  SQS_ASSIGN_OR_RETURN(submitted, executor.Execute(query));
  if (inject_kill) {
    JobRunner* job = executor.job(submitted.job_index);
    SQS_ASSIGN_OR_RETURN(caught, job->container(0)->RunUntilCaughtUp(250));
    (void)caught;
    SQS_RETURN_IF_ERROR(job->KillContainer(0));
    SQS_RETURN_IF_ERROR(job->RestartContainer(0));
  }
  SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;
  return ReadTopicBytes(*env->broker, submitted.output_topic);
}

void ExpectSameBytes(const std::vector<std::vector<Bytes>>& expected,
                     const std::vector<std::vector<Bytes>>& actual,
                     size_t min_total) {
  ASSERT_EQ(expected.size(), actual.size());
  size_t total = 0;
  for (size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(expected[p], actual[p]) << "partition " << p;
    total += expected[p].size();
  }
  EXPECT_GT(total, min_total);
}

TEST(FusionExactlyOnceTest, CrashReplayAtBatchBoundariesIsByteIdentical) {
  // Same fused query under exactly-once delivery, with and without a
  // mid-stream kill+restart: per-batch producer sequencing must make the
  // replayed log byte-identical to the clean run.
  const std::string query =
      "SELECT STREAM orderId, units * 2 AS doubled FROM Orders WHERE units > 20";
  auto clean = RunExactlyOnce(query, 0, /*fusion=*/true, /*inject_kill=*/false);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto faulty = RunExactlyOnce(query, 0, /*fusion=*/true, /*inject_kill=*/true);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ExpectSameBytes(clean.value(), faulty.value(), 100);
}

TEST(FusionExactlyOnceTest, JoinCrashReplayAtBatchBoundariesIsByteIdentical) {
  // The fused stream-relation join under the same kill+restart: the
  // restarted container re-bootstraps the relation store from its changelog,
  // and the replayed log must equal both the clean fused run and the
  // interpreted (sql.fusion=off) run, byte for byte.
  const std::string query =
      "SELECT STREAM Orders.orderId, Orders.units, Products.supplierId "
      "FROM Orders JOIN Products ON Orders.productId = Products.productId "
      "WHERE Products.supplierId > 5";
  auto interpreted = RunExactlyOnce(query, 12, /*fusion=*/false, /*inject_kill=*/false);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  auto clean = RunExactlyOnce(query, 12, /*fusion=*/true, /*inject_kill=*/false);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto faulty = RunExactlyOnce(query, 12, /*fusion=*/true, /*inject_kill=*/true);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ExpectSameBytes(interpreted.value(), clean.value(), 100);
  ExpectSameBytes(interpreted.value(), faulty.value(), 100);
}

// ---------------------------------------------------------------------------
// The fused join counts operator drops the way the interpreted DAG does:
// filter misses below and above the join and inner-join misses are
// dropped tuples, a residual miss is not.

Result<int64_t> OperatorDrops(const std::string& query, bool fusion) {
  auto env = SamzaSqlEnvironment::Make();
  SQS_RETURN_IF_ERROR(workload::SetupPaperSources(*env, 2));
  SQS_RETURN_IF_ERROR(workload::ProduceProducts(*env, 10));
  workload::OrdersGeneratorOptions options;
  options.num_products = 15;
  options.seed = 31;
  workload::OrdersGenerator gen(*env, options);
  SQS_ASSIGN_OR_RETURN(produced, gen.Produce(600));
  (void)produced;
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
  QueryExecutor executor(env, defaults);
  SQS_ASSIGN_OR_RETURN(submitted, executor.Execute(query));
  SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;
  const MetricsSnapshot snap =
      executor.job(submitted.job_index)->metrics_registry()->Snapshot();
  int64_t drops = 0;
  for (const auto& [name, v] : snap.counters) {
    // <job>.<task>.<operator>.dropped; the task-level counter has one
    // segment fewer and counts dead-lettered messages.
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".dropped") == 0 &&
        std::count(name.begin(), name.end(), '.') == 3) {
      drops += v;
    }
  }
  return drops;
}

TEST(FusionMetricsTest, FusedJoinCountsDropsLikeTheInterpretedJoin) {
  const std::string query =
      "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders JOIN "
      "Products ON Orders.productId = Products.productId AND "
      "Orders.units > Products.supplierId WHERE Orders.units > 20 AND "
      "Products.supplierId < 40";
  auto fused = OperatorDrops(query, true);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  auto interpreted = OperatorDrops(query, false);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  EXPECT_GT(interpreted.value(), 0);
  EXPECT_EQ(fused.value(), interpreted.value());
}

// ---------------------------------------------------------------------------
// Relation decodes per task: the fused probe decodes each relation row once
// per key per task (StreamTableJoinOperator::Lookup), while the interpreted
// join (sql.fusion=off) keeps the paper's decode on every probe (§5.1).

// Delegates to the job's state serde and counts the rows it decodes.
class CountingRowSerde : public RowSerde {
 public:
  explicit CountingRowSerde(RowSerdePtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Status Serialize(const Row& row, BytesWriter& out) const override {
    return inner_->Serialize(row, out);
  }
  Result<Row> Deserialize(BytesReader& in) const override {
    ++decodes;
    return inner_->Deserialize(in);
  }
  mutable int64_t decodes = 0;

 private:
  RowSerdePtr inner_;
};

// One task's context: in-memory stores, sends counted and dropped.
class DecodeCountTask : public TaskContext, public MessageCollector {
 public:
  const std::string& task_name() const override { return name_; }
  int32_t partition_id() const override { return 0; }
  const Config& config() const override { return config_; }
  MetricsRegistry& metrics() override { return metrics_; }
  KeyValueStorePtr GetStore(const std::string& name) override {
    auto& slot = stores_[name];
    if (!slot) slot = std::make_shared<InMemoryStore>();
    return slot;
  }
  Status Send(const std::string&, Bytes, Bytes) override {
    ++sent;
    return Status::Ok();
  }
  Status SendToPartition(const std::string&, int32_t, Bytes, Bytes) override {
    ++sent;
    return Status::Ok();
  }
  int64_t sent = 0;

 private:
  std::string name_ = "Partition 0";
  Config config_;
  MetricsRegistry metrics_;
  std::map<std::string, KeyValueStorePtr> stores_;
};

// Counts joined tuples on the interpreted path.
class CountingSink : public ops::Operator {
 public:
  std::string name() const override { return "sink"; }
  Status Init(ops::OperatorContext&) override { return Status::Ok(); }
  int64_t rows = 0;

 protected:
  Status DoProcess(const ops::TupleEvent&, ops::OperatorContext&) override {
    ++rows;
    return Status::Ok();
  }
};

Result<std::shared_ptr<ops::ScanOperator>> ScanOf(const sql::SourceDef& source) {
  SQS_ASSIGN_OR_RETURN(serde, ops::SerdeForFormat(source.format, source.schema));
  const int rowtime =
      source.rowtime_column.empty()
          ? -1
          : static_cast<int>(*source.schema->FieldIndex(source.rowtime_column));
  return std::make_shared<ops::ScanOperator>(serde, source.schema, rowtime);
}

struct DecodeCount {
  int64_t orders = 0;
  int64_t distinct_products = 0;
  int64_t joined = 0;
  int64_t decodes = 0;
};

// Runs one task of `query` (a fused stream-relation join) over `partition`,
// built the way MessageRouter builds it but with the relation rows decoded
// through a CountingRowSerde: the relation's scan feeds the join's side-1
// upsert, then the orders run in runs of 64 through the fused stage or, with
// fusion off, through the interpreted scan into the join's side 0.
Result<DecodeCount> RunJoinTask(SamzaSqlEnvironment& env, const std::string& query,
                                int32_t partition, bool fusion) {
  SQS_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(query));
  sql::QueryPlanner planner(env.catalog);
  SQS_ASSIGN_OR_RETURN(logical, planner.Plan(*stmt.select));
  sql::LogicalNodePtr optimized = sql::Optimize(logical);
  ops::RouterConfig config;
  config.output_serde = std::make_shared<AvroRowSerde>(optimized->schema);
  ops::RouterPlanPtr plan = ops::MessageRouter::Plan(optimized, config);
  if (!plan->fused || !plan->fused->probe) {
    return Status::Internal("not a fused stream-relation join: " + query);
  }
  std::shared_ptr<const sql::FusedStageSpec> spec(plan, &*plan->fused);
  const sql::FusedProbeSpec& probe = *spec->probe;
  SQS_ASSIGN_OR_RETURN(state_serde,
                       ops::SerdeForFormat(config.state_serde, probe.relation_schema));
  auto counting = std::make_shared<CountingRowSerde>(state_serde);

  DecodeCountTask task;
  ops::OperatorContext ctx;
  ctx.task = &task;
  ctx.collector = &task;
  auto join = std::make_shared<ops::StreamTableJoinOperator>(
      probe.equi_keys, nullptr, counting, probe.store_prefix);
  SQS_ASSIGN_OR_RETURN(relation_scan, ScanOf(probe.relation->source));
  relation_scan->SetNext(join, 1);
  std::vector<ops::Operator*> operators = {relation_scan.get(), join.get()};

  const sql::SourceDef& stream = spec->scan->source;
  SQS_ASSIGN_OR_RETURN(stream_serde,
                       ops::SerdeForFormat(stream.format, stream.schema));
  std::shared_ptr<ops::SourceOperator> source;
  auto sink = std::make_shared<CountingSink>();
  if (fusion) {
    auto fused = std::make_shared<ops::FusedStageOperator>(
        spec, stream_serde, "out", config.output_serde, -1, join);
    operators.push_back(fused.get());
    source = fused;
  } else {
    SQS_ASSIGN_OR_RETURN(scan, ScanOf(stream));
    scan->SetNext(join, 0);
    join->SetNext(sink, 0);
    operators.push_back(scan.get());
    operators.push_back(sink.get());
    source = scan;
  }
  for (ops::Operator* op : operators) {
    op->BindMetrics(task);
    SQS_RETURN_IF_ERROR(op->Init(ctx));
  }

  auto fetch = [&](const std::string& topic) -> Result<std::vector<IncomingMessage>> {
    SQS_ASSIGN_OR_RETURN(end, env.broker->EndOffset({topic, partition}));
    return env.broker->Fetch({topic, partition}, 0, static_cast<int32_t>(end));
  };
  SQS_ASSIGN_OR_RETURN(relation_msgs, fetch(probe.relation->source.topic));
  for (const IncomingMessage& m : relation_msgs) {
    SQS_RETURN_IF_ERROR(relation_scan->ProcessMessage(m, ctx));
  }
  SQS_ASSIGN_OR_RETURN(orders, fetch(stream.topic));
  DecodeCount out;
  out.orders = static_cast<int64_t>(orders.size());
  std::set<int32_t> products;
  for (const IncomingMessage& m : orders) {
    SQS_ASSIGN_OR_RETURN(row, stream_serde->DeserializeBytes(m.message.value));
    products.insert(row[1].as_int32());
  }
  out.distinct_products = static_cast<int64_t>(products.size());
  for (size_t i = 0; i < orders.size(); i += 64) {
    size_t consumed = 0;
    SQS_RETURN_IF_ERROR(source->ProcessMessages(
        &orders[i], std::min<size_t>(64, orders.size() - i), ctx, &consumed));
  }
  out.joined = fusion ? task.sent : sink->rows;
  out.decodes = counting->decodes;
  return out;
}

TEST(FusionDecodeCountTest, FusedProbeDecodesEachRelationRowOncePerTask) {
  // Orders over 15 products, every one in the relation: N orders per task
  // probe K distinct keys, all matching.
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 2).ok());
  ASSERT_TRUE(workload::ProduceProducts(*env, 15).ok());
  workload::OrdersGeneratorOptions options;
  options.num_products = 15;
  options.seed = 41;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(600).ok());
  // The Figure 5c query.
  const std::string query =
      "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
      "Orders.units, Products.supplierId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId";
  for (int32_t partition = 0; partition < 2; ++partition) {
    auto fused = RunJoinTask(*env, query, partition, /*fusion=*/true);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    auto interpreted = RunJoinTask(*env, query, partition, /*fusion=*/false);
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    const DecodeCount& f = fused.value();
    const DecodeCount& i = interpreted.value();
    ASSERT_GT(f.orders, f.distinct_products) << "partition " << partition;
    EXPECT_EQ(f.joined, f.orders) << "partition " << partition;
    EXPECT_EQ(i.joined, i.orders) << "partition " << partition;
    EXPECT_EQ(f.decodes, f.distinct_products) << "partition " << partition;
    EXPECT_EQ(i.decodes, i.orders) << "partition " << partition;
  }
}

// ---------------------------------------------------------------------------
// Stream-relation join keys agree with the batch oracle (EvalJoin): a NULL
// key never matches, and numeric keys of different kinds match by value.
// Both the interpreted join and the fused probe encode keys through
// ops::JoinKey, so each case runs with fusion on and off.

struct KeyJoinRows {
  std::multiset<std::string> streamed;
  std::multiset<std::string> batch;
};

// Stream S(rowtime BIGINT, k <stream_key>) and relation R(k INT NULL,
// v INT) on one partition; runs SELECT [STREAM] S.rowtime, R.v FROM S JOIN R
// ON S.k = R.k.
Result<KeyJoinRows> RunKeyJoin(FieldType stream_key, const std::vector<Row>& s_rows,
                               const std::vector<Row>& r_rows, bool fusion) {
  auto env = SamzaSqlEnvironment::Make();
  auto add = [&](const std::string& name, sql::SourceKind kind,
                 SchemaPtr schema) -> Status {
    sql::SourceDef def;
    def.name = name;
    def.kind = kind;
    def.topic = name;
    def.schema = schema;
    if (kind == sql::SourceKind::kStream) def.rowtime_column = "rowtime";
    SQS_RETURN_IF_ERROR(env->catalog->RegisterSource(def));
    SQS_RETURN_IF_ERROR(env->registry->Register(name, schema).status());
    return env->broker->CreateTopic(
        name, {.num_partitions = 1, .compacted = kind == sql::SourceKind::kRelation});
  };
  auto s_schema = Schema::Make("S", {{"rowtime", FieldType::Int64(), false},
                                     {"k", stream_key, true}});
  auto r_schema = Schema::Make("R", {{"k", FieldType::Int32(), true},
                                     {"v", FieldType::Int32(), false}});
  SQS_RETURN_IF_ERROR(add("S", sql::SourceKind::kStream, s_schema));
  SQS_RETURN_IF_ERROR(add("R", sql::SourceKind::kRelation, r_schema));
  Producer producer(env->broker, env->clock);
  AvroRowSerde s_serde(s_schema);
  AvroRowSerde r_serde(r_schema);
  for (const Row& row : r_rows) {
    SQS_RETURN_IF_ERROR(producer.SendTo({"R", 0}, EncodeOrderedKey(row[0]),
                                        r_serde.SerializeToBytes(row)).status());
  }
  for (const Row& row : s_rows) {
    SQS_RETURN_IF_ERROR(
        producer.SendTo({"S", 0}, Bytes{}, s_serde.SerializeToBytes(row)).status());
  }

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  if (!fusion) defaults.Set(sqlcfg::kFusion, "off");
  QueryExecutor executor(env, defaults);
  const std::string body = "S.rowtime, R.v FROM S JOIN R ON S.k = R.k";
  SQS_ASSIGN_OR_RETURN(submitted, executor.Execute("SELECT STREAM " + body));
  SQS_ASSIGN_OR_RETURN(quiesced, executor.RunJobsUntilQuiescent());
  (void)quiesced;
  SQS_ASSIGN_OR_RETURN(rows, executor.ReadOutputRows(submitted.output_topic));
  SQS_ASSIGN_OR_RETURN(oracle, executor.Execute("SELECT " + body));
  KeyJoinRows out;
  for (const Row& r : rows) out.streamed.insert(RowToString(r));
  for (const Row& r : oracle.rows) out.batch.insert(RowToString(r));
  return out;
}

const std::vector<Row> kRelationWithNullKey = {
    {Value::Null(), Value(int32_t{7})}, {Value(int32_t{1}), Value(int32_t{8})}};

TEST(FusionJoinKeyTest, NullKeyNeverMatchesStreamingEqualsBatch) {
  for (bool fusion : {true, false}) {
    auto rows = RunKeyJoin(FieldType::Int32(),
                           {{Value(int64_t{1000}), Value::Null()},
                            {Value(int64_t{2000}), Value(int32_t{1})}},
                           kRelationWithNullKey, fusion);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows.value().streamed, rows.value().batch) << "fusion=" << fusion;
    EXPECT_EQ(rows.value().batch.size(), 1u);
  }
}

TEST(FusionJoinKeyTest, NumericKeyKindsMatchByValueStreamingEqualsBatch) {
  for (bool fusion : {true, false}) {
    // BIGINT stream key against the INT relation key.
    auto bigint = RunKeyJoin(FieldType::Int64(),
                             {{Value(int64_t{1000}), Value(int64_t{5})},
                              {Value(int64_t{2000}), Value(int64_t{1})}},
                             kRelationWithNullKey, fusion);
    ASSERT_TRUE(bigint.ok()) << bigint.status().ToString();
    EXPECT_EQ(bigint.value().streamed, bigint.value().batch) << "fusion=" << fusion;
    EXPECT_EQ(bigint.value().batch.size(), 1u);
    // DOUBLE stream key: 1.0 equals INT 1, 1.5 matches nothing.
    auto dbl = RunKeyJoin(FieldType::Double(),
                          {{Value(int64_t{1000}), Value(1.5)},
                           {Value(int64_t{2000}), Value(1.0)}},
                          kRelationWithNullKey, fusion);
    ASSERT_TRUE(dbl.ok()) << dbl.status().ToString();
    EXPECT_EQ(dbl.value().streamed, dbl.value().batch) << "fusion=" << fusion;
    EXPECT_EQ(dbl.value().batch.size(), 1u);
  }
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

TEST(PlanFusedStagesTest, StreamRelationJoinFusesWithTheProbeInside) {
  auto catalog = testutil::PaperCatalog();
  // The perfbench join query (Figure 5c).
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM Orders.rowtime, Orders.orderId, "
                        "Orders.productId, Orders.units, Products.supplierId "
                        "FROM Orders JOIN Products ON "
                        "Orders.productId = Products.productId");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  const FusedStageSpec& spec = specs[0];
  // Preorder ids: project op0, join op1, Orders scan op2, Products scan op3.
  EXPECT_EQ(spec.first_op, 0);
  EXPECT_EQ(spec.last_op, 2);
  EXPECT_TRUE(spec.reaches_root);
  EXPECT_EQ(spec.label, "fused<op0..op2>");
  ASSERT_NE(spec.scan, nullptr);
  EXPECT_EQ(spec.scan->source.name, "Orders");
  EXPECT_EQ(spec.output_schema->num_fields(), 5u);
  ASSERT_TRUE(spec.probe.has_value());
  const FusedProbeSpec& probe = *spec.probe;
  EXPECT_EQ(probe.store_prefix, "op1");
  ASSERT_NE(probe.relation, nullptr);
  EXPECT_EQ(probe.relation->source.name, "Products");
  EXPECT_EQ(probe.prefix_arity, 5u);
  ASSERT_EQ(probe.equi_keys.size(), 1u);
  EXPECT_EQ(probe.equi_keys[0], std::make_pair(1, 0));  // productId = productId
  EXPECT_EQ(probe.residual, nullptr);
  EXPECT_TRUE(probe.predicates.empty());
  ASSERT_EQ(probe.projections.size(), 5u);
  // The stream prefix is the bare scan (identity), and its kernel decodes
  // only what the key and the output use: never the pad string.
  EXPECT_TRUE(spec.projections.empty());
  ASSERT_EQ(spec.referenced.size(), 5u);
  EXPECT_TRUE(spec.referenced[0]);
  EXPECT_TRUE(spec.referenced[1]);
  EXPECT_TRUE(spec.referenced[2]);
  EXPECT_TRUE(spec.referenced[3]);
  EXPECT_FALSE(spec.referenced[4]);
}

TEST(PlanFusedStagesTest, FusedJoinRebasesFiltersAndResidualAroundTheProbe) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM Orders.orderId, Products.name "
                        "FROM Orders JOIN Products ON "
                        "Orders.productId = Products.productId "
                        "AND Orders.units > Products.supplierId "
                        "WHERE Orders.units > 40 AND Products.supplierId < 30");
  auto specs = PlanFusedStages(*plan);
  ASSERT_EQ(specs.size(), 1u);
  const FusedStageSpec& spec = specs[0];
  ASSERT_TRUE(spec.probe.has_value());
  // The stream-only conjunct was pushed below the join: the kernel runs it.
  ASSERT_EQ(spec.predicates.size(), 1u);
  std::vector<int> cols;
  CollectColumnIndices(*spec.predicates[0], cols);
  EXPECT_EQ(cols, std::vector<int>{3});  // units
  // The relation conjunct stays above the join, over [Orders ++ Products].
  ASSERT_EQ(spec.probe->predicates.size(), 1u);
  cols.clear();
  CollectColumnIndices(*spec.probe->predicates[0], cols);
  EXPECT_EQ(cols, std::vector<int>{7});  // Products.supplierId
  ASSERT_NE(spec.probe->residual, nullptr);
  // Output: orderId (2) and name (6) of the joined row.
  ASSERT_EQ(spec.probe->projections.size(), 2u);
  EXPECT_EQ(spec.probe->projections[0]->resolved_index, 2);
  EXPECT_EQ(spec.probe->projections[1]->resolved_index, 6);
}

TEST(PlanFusedStagesTest, StreamStreamJoinIsNotFused) {
  auto catalog = testutil::PaperCatalog();
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM PacketsR1.packetId FROM PacketsR1 JOIN "
                        "PacketsR2 ON PacketsR1.rowtime BETWEEN "
                        "PacketsR2.rowtime - INTERVAL '2' SECOND AND "
                        "PacketsR2.rowtime + INTERVAL '2' SECOND AND "
                        "PacketsR1.packetId = PacketsR2.packetId");
  EXPECT_TRUE(PlanFusedStages(*plan).empty());
}

TEST(PlanFusedStagesTest, SelfJoinIsNotFused) {
  // A relation materialized from the stream's own topic: one topic feeds
  // both join sides, so the interpreted per-message fan-out order stays.
  auto catalog = testutil::PaperCatalog();
  SourceDef table = catalog->GetSource("Orders").value();
  table.name = "OrdersTable";
  table.kind = SourceKind::kRelation;
  ASSERT_TRUE(catalog->RegisterSource(table).ok());
  auto plan = PlanQuery(catalog,
                        "SELECT STREAM Orders.orderId, OrdersTable.units "
                        "FROM Orders JOIN OrdersTable ON "
                        "Orders.orderId = OrdersTable.orderId");
  EXPECT_TRUE(PlanFusedStages(*plan).empty());
}

TEST(PlanFusedStagesTest, JoinUnderWindowOrAggregateIsNotFused) {
  auto catalog = testutil::PaperCatalog();
  auto aggregate = PlanQuery(catalog,
                             "SELECT STREAM Orders.productId, COUNT(*) AS c "
                             "FROM Orders JOIN Products ON "
                             "Orders.productId = Products.productId "
                             "GROUP BY TUMBLE(Orders.rowtime, INTERVAL '1' MINUTE), "
                             "Orders.productId");
  EXPECT_TRUE(PlanFusedStages(*aggregate).empty());
  auto window = PlanQuery(catalog,
                          "SELECT STREAM orderId, SUM(units) OVER "
                          "(PARTITION BY supplierId ORDER BY rowtime "
                          "RANGE INTERVAL '5' MINUTE PRECEDING) AS s "
                          "FROM Orders JOIN Products ON "
                          "Orders.productId = Products.productId");
  EXPECT_TRUE(PlanFusedStages(*window).empty());
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
