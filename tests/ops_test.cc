// Operator-layer unit tests: exercising scan/filter/project/insert, the
// sliding-window operator (Algorithm 1), the tumble/hop aggregate operator,
// both joins, and the router directly, with a fake task context.
#include <gtest/gtest.h>

#include "core/executor.h"
#include "kv/changelog.h"
#include "log/fault_broker.h"
#include "ops/basic.h"
#include "ops/join.h"
#include "ops/router.h"
#include "ops/window.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql_test_util.h"
#include "workload/generators.h"

namespace sqs::ops {
namespace {

// Task context with on-demand in-memory stores.
class FakeTaskContext : public TaskContext {
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
  void SetStore(const std::string& name, KeyValueStorePtr store) {
    stores_[name] = std::move(store);
  }

  Config config_;

 private:
  std::string name_ = "Partition 0";
  MetricsRegistry metrics_;
  std::map<std::string, KeyValueStorePtr> stores_;
};

// Collector that records sends.
class RecordingCollector : public MessageCollector {
 public:
  struct Sent {
    std::string topic;
    int32_t partition;
    Bytes value;
  };
  Status Send(const std::string& topic, Bytes, Bytes value) override {
    sent.push_back({topic, -1, std::move(value)});
    return Status::Ok();
  }
  Status SendToPartition(const std::string& topic, int32_t partition, Bytes,
                         Bytes value) override {
    sent.push_back({topic, partition, std::move(value)});
    return Status::Ok();
  }
  std::vector<Sent> sent;
};

// Sink operator that records tuple events.
class SinkOperator : public Operator {
 public:
  std::string name() const override { return "sink"; }
  Status Init(OperatorContext&) override { return Status::Ok(); }
  std::vector<TupleEvent> events;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext&) override {
    events.push_back(event);
    return Status::Ok();
  }
};

sql::ExprPtr ResolvedExpr(const std::string& text, SchemaPtr schema) {
  auto e = sql::ParseExpression(text).value();
  auto resolver = [&](const std::string&,
                      const std::string& c) -> Result<std::pair<int, FieldType>> {
    auto idx = schema->FieldIndex(c);
    if (!idx) return Status::NotFound(c);
    return std::make_pair(static_cast<int>(*idx), schema->field(*idx).type);
  };
  Status st = sql::ResolveExpr(*e, resolver, false);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return e;
}

SchemaPtr TestSchema() {
  return Schema::Make("T", {{"rowtime", FieldType::Int64(), false},
                            {"key", FieldType::Int32(), false},
                            {"val", FieldType::Int32(), false}});
}

TupleEvent Ev(int64_t ts, int32_t key, int32_t val, int64_t offset = 0,
              int32_t partition = 0) {
  TupleEvent e;
  e.row = {Value(ts), Value(key), Value(val)};
  e.rowtime = ts;
  e.partition = partition;
  e.offset = offset;
  return e;
}

class OpsTest : public ::testing::Test {
 protected:
  FakeTaskContext task_;
  RecordingCollector collector_;
  OperatorContext Ctx() {
    OperatorContext ctx;
    ctx.task = &task_;
    ctx.collector = &collector_;
    return ctx;
  }
  // Operators driven on their own are bound the way MessageRouter::Init
  // binds a router's operators.
  template <typename... Ops>
  void Bind(Ops&... ops) {
    (ops.BindMetrics(task_), ...);
  }
};

TEST_F(OpsTest, FilterPassesAndDrops) {
  auto sink = std::make_shared<SinkOperator>();
  FilterOperator filter(ResolvedExpr("val > 10", TestSchema()));
  filter.SetNext(sink);
  auto ctx = Ctx();
  Bind(filter, *sink);
  ASSERT_TRUE(filter.Init(ctx).ok());
  ASSERT_TRUE(filter.Process(Ev(1, 1, 5), ctx).ok());
  ASSERT_TRUE(filter.Process(Ev(2, 1, 15), ctx).ok());
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].row[2], Value(int32_t{15}));
}

TEST_F(OpsTest, ProjectComputesAndTracksRowtime) {
  auto sink = std::make_shared<SinkOperator>();
  std::vector<sql::ExprPtr> exprs;
  exprs.push_back(ResolvedExpr("rowtime", TestSchema()));
  exprs.push_back(ResolvedExpr("val * 2", TestSchema()));
  ProjectOperator project(std::move(exprs), 0);
  project.SetNext(sink);
  auto ctx = Ctx();
  Bind(project, *sink);
  ASSERT_TRUE(project.Init(ctx).ok());
  ASSERT_TRUE(project.Process(Ev(42, 1, 7), ctx).ok());
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].row, (Row{Value(int64_t{42}), Value(int32_t{14})}));
  EXPECT_EQ(sink->events[0].rowtime, 42);
}

TEST_F(OpsTest, ScanDecodesAndValidates) {
  auto schema = TestSchema();
  auto serde = std::make_shared<AvroRowSerde>(schema);
  auto sink = std::make_shared<SinkOperator>();
  ScanOperator scan(serde, schema, 0);
  scan.SetNext(sink);
  auto ctx = Ctx();
  Bind(scan, *sink);
  ASSERT_TRUE(scan.Init(ctx).ok());

  IncomingMessage msg;
  msg.origin = {"t", 3};
  msg.offset = 9;
  msg.message.value = serde->SerializeToBytes({Value(int64_t{100}), Value(int32_t{1}),
                                               Value(int32_t{2})});
  ASSERT_TRUE(scan.ProcessMessage(msg, ctx).ok());
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].rowtime, 100);
  EXPECT_EQ(sink->events[0].partition, 3);
  EXPECT_EQ(sink->events[0].offset, 9);

  // Corrupt payload is rejected.
  msg.message.value.resize(2);
  EXPECT_FALSE(scan.ProcessMessage(msg, ctx).ok());
}

TEST_F(OpsTest, InsertSerializesAndPreservesPartition) {
  auto schema = TestSchema();
  InsertOperator insert("out", std::make_shared<AvroRowSerde>(schema));
  auto ctx = Ctx();
  Bind(insert);
  ASSERT_TRUE(insert.Init(ctx).ok());
  ASSERT_TRUE(insert.Process(Ev(5, 2, 3, 0, 7), ctx).ok());
  ASSERT_EQ(collector_.sent.size(), 1u);
  EXPECT_EQ(collector_.sent[0].topic, "out");
  EXPECT_EQ(collector_.sent[0].partition, 7);
  AvroRowSerde serde(schema);
  auto back = serde.DeserializeBytes(collector_.sent[0].value);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[2], Value(int32_t{3}));
  EXPECT_EQ(insert.emitted(), 1);
}

TEST_F(OpsTest, OperatorRegistersAndAdvancesScopedMetrics) {
  // Metrics are scoped `<job>.<task>.<operator>.<metric>`: default job name
  // "job", task "Partition 0" sanitized to "Partition_0", standalone
  // operators use name() as their id.
  auto sink = std::make_shared<SinkOperator>();
  FilterOperator filter(ResolvedExpr("val > 10", TestSchema()));
  filter.SetNext(sink);
  auto ctx = Ctx();
  Bind(filter, *sink);
  ASSERT_TRUE(filter.Init(ctx).ok());
  ASSERT_TRUE(filter.Process(Ev(100, 1, 5), ctx).ok());
  ASSERT_TRUE(filter.Process(Ev(200, 1, 15), ctx).ok());

  MetricsSnapshot snap = task_.metrics().Snapshot();
  EXPECT_EQ(snap.counters["job.Partition_0.filter.processed"], 2);
  EXPECT_EQ(snap.counters["job.Partition_0.filter.dropped"], 1);
  EXPECT_EQ(snap.histograms["job.Partition_0.filter.latency_ns"].count, 2);
  EXPECT_GT(snap.histograms["job.Partition_0.filter.latency_ns"].p99, 0);
  EXPECT_EQ(snap.gauges["job.Partition_0.filter.watermark_ms"], 200);
  // The sink downstream was also instrumented (one tuple passed the filter).
  EXPECT_EQ(snap.counters["job.Partition_0.sink.processed"], 1);
}

TEST_F(OpsTest, MetricIdOverridesScopeSegment) {
  auto sink = std::make_shared<SinkOperator>();
  FilterOperator filter(ResolvedExpr("val > 10", TestSchema()));
  filter.set_metric_id("op2-filter");
  filter.SetNext(sink);
  auto ctx = Ctx();
  Bind(filter, *sink);
  ASSERT_TRUE(filter.Init(ctx).ok());
  ASSERT_TRUE(filter.Process(Ev(1, 1, 50), ctx).ok());
  MetricsSnapshot snap = task_.metrics().Snapshot();
  EXPECT_EQ(snap.counters["job.Partition_0.op2-filter.processed"], 1);
  EXPECT_EQ(snap.counters.count("job.Partition_0.filter.processed"), 0u);
}

sql::WindowCallSpec SumWindowCall(SchemaPtr schema, int64_t window_ms) {
  sql::WindowCallSpec spec;
  spec.func_id = sql::FunctionRegistry::Instance().Find("SUM")->id;
  spec.arg = ResolvedExpr("val", schema);
  spec.partition_by.push_back(ResolvedExpr("key", schema));
  spec.ts_index = 0;
  spec.range_based = true;
  spec.preceding_ms = window_ms;
  spec.type = FieldType::Int64();
  spec.output_name = "w0";
  return spec;
}

TEST_F(OpsTest, SlidingWindowSumAdvancesAndPurges) {
  auto schema = TestSchema();
  std::vector<sql::WindowCallSpec> calls;
  calls.push_back(SumWindowCall(schema, 100));
  SlidingWindowOperator window(std::move(calls), "w");
  auto sink = std::make_shared<SinkOperator>();
  window.SetNext(sink);
  auto ctx = Ctx();
  Bind(window, *sink);
  ASSERT_TRUE(window.Init(ctx).ok());

  // Key 1: values at t=0,50,100,200. Window = 100ms preceding inclusive.
  ASSERT_TRUE(window.Process(Ev(0, 1, 10, 0), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(50, 1, 20, 1), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(100, 1, 30, 2), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(200, 1, 40, 3), ctx).ok());
  // Other key unaffected.
  ASSERT_TRUE(window.Process(Ev(200, 2, 5, 4), ctx).ok());

  ASSERT_EQ(sink->events.size(), 5u);
  EXPECT_EQ(sink->events[0].row[3], Value(int64_t{10}));
  EXPECT_EQ(sink->events[1].row[3], Value(int64_t{30}));
  EXPECT_EQ(sink->events[2].row[3], Value(int64_t{60}));  // t in [0,100]
  EXPECT_EQ(sink->events[3].row[3], Value(int64_t{70}));  // t in [100,200]
  EXPECT_EQ(sink->events[4].row[3], Value(int64_t{5}));
}

TEST_F(OpsTest, SlidingWindowDuplicateDeliveryIsIdempotentAndDeterministic) {
  auto schema = TestSchema();
  std::vector<sql::WindowCallSpec> calls;
  calls.push_back(SumWindowCall(schema, 100));
  SlidingWindowOperator window(std::move(calls), "w");
  auto sink = std::make_shared<SinkOperator>();
  window.SetNext(sink);
  auto ctx = Ctx();
  Bind(window, *sink);
  ASSERT_TRUE(window.Init(ctx).ok());

  ASSERT_TRUE(window.Process(Ev(0, 1, 10, 0), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(50, 1, 20, 1), ctx).ok());
  // Re-deliver the second tuple (same offset): same output value, no state
  // change.
  ASSERT_TRUE(window.Process(Ev(50, 1, 20, 1), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(120, 1, 5, 2), ctx).ok());
  ASSERT_EQ(sink->events.size(), 4u);
  EXPECT_EQ(sink->events[1].row[3], sink->events[2].row[3]);
  EXPECT_EQ(sink->events[3].row[3], Value(int64_t{25}));  // 20 + 5; 10 expired
}

TEST_F(OpsTest, SlidingWindowReplayAfterLaterTuplesStillExact) {
  // A replayed tuple must see its original window even though later tuples
  // advanced the logical bound (physical purge waits for the committed
  // watermark).
  auto schema = TestSchema();
  std::vector<sql::WindowCallSpec> calls;
  calls.push_back(SumWindowCall(schema, 100));
  SlidingWindowOperator window(std::move(calls), "w");
  auto sink = std::make_shared<SinkOperator>();
  window.SetNext(sink);
  auto ctx = Ctx();
  Bind(window, *sink);
  ASSERT_TRUE(window.Init(ctx).ok());

  ASSERT_TRUE(window.Process(Ev(0, 1, 10, 0), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(80, 1, 20, 1), ctx).ok());    // sum 30
  ASSERT_TRUE(window.Process(Ev(300, 1, 40, 2), ctx).ok());   // bound advanced to 200
  // Replay offset 1: original window [(-20),80] must still contain t=0.
  ASSERT_TRUE(window.Process(Ev(80, 1, 20, 1), ctx).ok());
  ASSERT_EQ(sink->events.size(), 4u);
  EXPECT_EQ(sink->events[3].row[3], sink->events[1].row[3]);
}

TEST_F(OpsTest, SlidingWindowRowsBased) {
  auto schema = TestSchema();
  sql::WindowCallSpec spec = SumWindowCall(schema, 0);
  spec.range_based = false;
  spec.preceding_rows = 1;  // current + 1 preceding
  std::vector<sql::WindowCallSpec> calls;
  calls.push_back(std::move(spec));
  SlidingWindowOperator window(std::move(calls), "w");
  auto sink = std::make_shared<SinkOperator>();
  window.SetNext(sink);
  auto ctx = Ctx();
  Bind(window, *sink);
  ASSERT_TRUE(window.Init(ctx).ok());

  ASSERT_TRUE(window.Process(Ev(0, 1, 1, 0), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(1, 1, 2, 1), ctx).ok());
  ASSERT_TRUE(window.Process(Ev(2, 1, 4, 2), ctx).ok());
  ASSERT_EQ(sink->events.size(), 3u);
  EXPECT_EQ(sink->events[0].row[3], Value(int64_t{1}));
  EXPECT_EQ(sink->events[1].row[3], Value(int64_t{3}));
  EXPECT_EQ(sink->events[2].row[3], Value(int64_t{6}));
}

TEST_F(OpsTest, WindowAggregateEmitsOnWatermarkAndDiscardsLate) {
  auto schema = TestSchema();
  sql::GroupWindowSpec win;
  win.type = sql::GroupWindowSpec::Type::kTumble;
  win.ts_index = 0;
  win.emit_ms = 100;
  win.retain_ms = 100;
  std::vector<sql::ExprPtr> groups;
  groups.push_back(ResolvedExpr("key", schema));
  std::vector<sql::AggCallSpec> aggs;
  sql::AggCallSpec count;
  count.func_id = sql::FunctionRegistry::Instance().Find("COUNT")->id;
  count.type = FieldType::Int64();
  aggs.push_back(std::move(count));
  WindowAggregateOperator agg(std::move(groups), win, std::move(aggs), "agg");
  auto sink = std::make_shared<SinkOperator>();
  agg.SetNext(sink);
  auto ctx = Ctx();
  Bind(agg, *sink);
  ASSERT_TRUE(agg.Init(ctx).ok());

  ASSERT_TRUE(agg.Process(Ev(10, 1, 0, 0), ctx).ok());
  ASSERT_TRUE(agg.Process(Ev(20, 1, 0, 1), ctx).ok());
  ASSERT_TRUE(agg.Process(Ev(90, 2, 0, 2), ctx).ok());
  EXPECT_TRUE(sink->events.empty());  // window [0,100) still open

  // Watermark passes 100: both groups' windows emit.
  ASSERT_TRUE(agg.Process(Ev(150, 1, 0, 3), ctx).ok());
  ASSERT_EQ(sink->events.size(), 2u);
  // Output layout: [key, window_start, window_end, count].
  EXPECT_EQ(sink->events[0].row[0], Value(int32_t{1}));
  EXPECT_EQ(sink->events[0].row[1], Value(int64_t{0}));
  EXPECT_EQ(sink->events[0].row[2], Value(int64_t{100}));
  EXPECT_EQ(sink->events[0].row[3], Value(int64_t{2}));
  EXPECT_EQ(sink->events[1].row[0], Value(int32_t{2}));

  // A tuple for the already-closed [0,100) window is discarded.
  ASSERT_TRUE(agg.Process(Ev(50, 1, 0, 4), ctx).ok());
  EXPECT_EQ(agg.discarded_late(), 1);
  EXPECT_EQ(task_.metrics().Snapshot().counters["job.Partition_0.window-aggregate.dropped"],
            1);
  ASSERT_TRUE(agg.Process(Ev(250, 1, 0, 5), ctx).ok());
  // The [100,200) window closed with only the t=150 tuple.
  ASSERT_EQ(sink->events.size(), 3u);
  EXPECT_EQ(sink->events[2].row[3], Value(int64_t{1}));
}

TEST_F(OpsTest, HoppingAggregateAssignsTupleToMultipleWindows) {
  auto schema = TestSchema();
  sql::GroupWindowSpec win;
  win.type = sql::GroupWindowSpec::Type::kHop;
  win.ts_index = 0;
  win.emit_ms = 50;
  win.retain_ms = 100;
  std::vector<sql::AggCallSpec> aggs;
  sql::AggCallSpec count;
  count.func_id = sql::FunctionRegistry::Instance().Find("COUNT")->id;
  count.type = FieldType::Int64();
  aggs.push_back(std::move(count));
  WindowAggregateOperator agg({}, win, std::move(aggs), "agg");
  auto sink = std::make_shared<SinkOperator>();
  agg.SetNext(sink);
  auto ctx = Ctx();
  Bind(agg, *sink);
  ASSERT_TRUE(agg.Init(ctx).ok());

  ASSERT_TRUE(agg.Process(Ev(60, 1, 0, 0), ctx).ok());  // windows [0,100) & [50,150)
  ASSERT_TRUE(agg.Process(Ev(400, 1, 0, 1), ctx).ok()); // closes both
  ASSERT_GE(sink->events.size(), 2u);
  EXPECT_EQ(sink->events[0].row[0], Value(int64_t{0}));   // start
  EXPECT_EQ(sink->events[0].row[2], Value(int64_t{1}));   // count
  EXPECT_EQ(sink->events[1].row[0], Value(int64_t{50}));
}

TEST_F(OpsTest, StreamTableJoinLooksUpAndHonorsUpserts) {
  auto schema = TestSchema();
  auto right_schema = Schema::Make("R", {{"rkey", FieldType::Int32(), false},
                                         {"info", FieldType::String(), false}});
  StreamTableJoinOperator join({{1, 0}}, nullptr,
                               std::make_shared<AvroRowSerde>(right_schema), "j");
  auto sink = std::make_shared<SinkOperator>();
  join.SetNext(sink);
  auto ctx = Ctx();
  Bind(join, *sink);
  ASSERT_TRUE(join.Init(ctx).ok());

  // No match yet: dropped (inner join).
  ASSERT_TRUE(join.Process(Ev(1, 7, 0, 0), ctx).ok());
  EXPECT_TRUE(sink->events.empty());

  // Relation side (side=1) upsert for key 7.
  TupleEvent rel;
  rel.row = {Value(int32_t{7}), Value("first")};
  rel.side = 1;
  ASSERT_TRUE(join.Process(rel, ctx).ok());
  EXPECT_EQ(join.table_size(), 1u);

  ASSERT_TRUE(join.Process(Ev(2, 7, 0, 1), ctx).ok());
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].row[4], Value("first"));

  // Upsert replaces.
  rel.row = {Value(int32_t{7}), Value("second")};
  ASSERT_TRUE(join.Process(rel, ctx).ok());
  EXPECT_EQ(join.table_size(), 1u);
  ASSERT_TRUE(join.Process(Ev(3, 7, 0, 2), ctx).ok());
  EXPECT_EQ(sink->events[1].row[4], Value("second"));
}

// The fused probe reads the relation through StreamTableJoinOperator::Lookup,
// which keeps decoded rows; the side-1 upsert must never let it serve a row
// the store does not hold.
SchemaPtr RelationSchema() {
  return Schema::Make("R", {{"rkey", FieldType::Int32(), false},
                            {"info", FieldType::String(), false}});
}

TupleEvent Upsert(int32_t key, const std::string& info) {
  TupleEvent e;
  e.row = {Value(key), Value(info)};
  e.side = 1;
  return e;
}

Bytes RelationKey(int32_t key) {
  Bytes out;
  JoinKey({0}).Encode(Row{Value(key)}, &out);
  return out;
}

// The `info` column of the row Lookup returns for `key`, or "<none>".
std::string LookupInfo(StreamTableJoinOperator& join, int32_t key) {
  auto row = join.Lookup(RelationKey(key));
  if (!row.ok()) return row.status().ToString();
  return row.value() == nullptr ? "<none>" : (*row.value())[1].as_string();
}

TEST_F(OpsTest, StreamTableJoinLookupAfterAHitSeesTheUpsert) {
  StreamTableJoinOperator join({{1, 0}}, nullptr,
                               std::make_shared<AvroRowSerde>(RelationSchema()), "j");
  auto ctx = Ctx();
  Bind(join);
  ASSERT_TRUE(join.Init(ctx).ok());
  ASSERT_TRUE(join.Process(Upsert(7, "first"), ctx).ok());
  auto hit = join.Lookup(RelationKey(7));
  ASSERT_TRUE(hit.ok());
  ASSERT_NE(hit.value(), nullptr);
  EXPECT_EQ(join.Lookup(RelationKey(7)).value(), hit.value()) << "a hit is cached";
  EXPECT_EQ(LookupInfo(join, 7), "first");

  ASSERT_TRUE(join.Process(Upsert(7, "second"), ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "second");
  EXPECT_EQ(join.table_size(), 1u);
}

TEST_F(OpsTest, StreamTableJoinLookupMissIsNotCached) {
  StreamTableJoinOperator join({{1, 0}}, nullptr,
                               std::make_shared<AvroRowSerde>(RelationSchema()), "j");
  auto ctx = Ctx();
  Bind(join);
  ASSERT_TRUE(join.Init(ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "<none>");
  ASSERT_TRUE(join.Process(Upsert(7, "late"), ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "late");
}

TEST_F(OpsTest, StreamTableJoinInitDropsDecodedRows) {
  auto serde = std::make_shared<AvroRowSerde>(RelationSchema());
  StreamTableJoinOperator join({{1, 0}}, nullptr, serde, "j");
  auto ctx = Ctx();
  Bind(join);
  ASSERT_TRUE(join.Init(ctx).ok());
  ASSERT_TRUE(join.Process(Upsert(7, "first"), ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "first");
  // A restore rewrites the store before Init, bypassing the upsert.
  task_.GetStore("j-table")->Put(RelationKey(7),
                                 serde->SerializeToBytes(Upsert(7, "restored").row));
  ASSERT_TRUE(join.Init(ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "restored");
}

TEST_F(OpsTest, StreamTableJoinLookupAfterAFailedUpsertServesTheStoredRow) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(
      inner->CreateTopic("j-changelog", {.num_partitions = 1, .compacted = true}).ok());
  auto fault = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  auto store = std::make_shared<ChangelogBackedStore>(
      std::make_shared<InMemoryStore>(), fault, StreamPartition{"j-changelog", 0});
  task_.SetStore("j-table", store);
  StreamTableJoinOperator join({{1, 0}}, nullptr,
                               std::make_shared<AvroRowSerde>(RelationSchema()), "j");
  auto ctx = Ctx();
  Bind(join);
  ASSERT_TRUE(join.Init(ctx).ok());
  ASSERT_TRUE(join.Process(Upsert(7, "first"), ctx).ok());
  EXPECT_EQ(LookupInfo(join, 7), "first");

  // The changelog append fails: the store keeps the old row, and so must
  // every probe after it.
  fault->FailNextAppends(1);
  ASSERT_TRUE(join.Process(Upsert(7, "second"), ctx).ok());
  EXPECT_FALSE(store->health().ok());
  EXPECT_EQ(LookupInfo(join, 7), "first");
}

// The same failure inside a running fused join job: the container fails at
// the store-health check that ends the batch holding the failed upsert, and no
// output joins a row the store does not hold.
TEST(StreamTableJoinJobTest, FailedRelationUpsertFailsAtTheBatchEndHealthCheck) {
  auto env = core::SamzaSqlEnvironment::Make();
  FaultPolicy policy;
  policy.topics = {"samzasql-query-0-op1-table-changelog"};
  auto fault = std::make_shared<FaultInjectingBroker>(env->broker, policy);
  env->broker = fault;
  ASSERT_TRUE(workload::SetupPaperSources(*env, 1).ok());
  ASSERT_TRUE(workload::ProduceProducts(*env, 5).ok());
  workload::OrdersGeneratorOptions options;
  options.num_products = 5;
  options.seed = 13;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(100).ok());

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  core::QueryExecutor executor(env, defaults);
  auto submitted = executor.Execute(
      "SELECT STREAM Orders.productId, Products.name FROM Orders JOIN Products "
      "ON Orders.productId = Products.productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  ASSERT_TRUE(env->broker->HasTopic(policy.topics[0]));
  const size_t first_run = executor.ReadOutputRows(submitted.value().output_topic)
                               .value()
                               .size();
  EXPECT_EQ(first_run, 100u);

  // Rename every product, failing the first upsert's changelog append; then
  // more orders.
  fault->FailNextAppends(1);
  Producer producer(env->broker, env->clock);
  AvroRowSerde serde(env->catalog->GetSource("Products").value().schema);
  for (int32_t id = 0; id < 5; ++id) {
    Row row{Value(id), Value("renamed-" + std::to_string(id)), Value(id)};
    ASSERT_TRUE(producer.Send("Products", EncodeOrderedKey(row[0]),
                              serde.SerializeToBytes(row))
                    .ok());
  }
  ASSERT_TRUE(gen.Produce(100).ok());

  auto failed = executor.RunJobsUntilQuiescent();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("store 'op1-table' unhealthy: "),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(fault->injected_append_failures(), 1);
  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  EXPECT_GE(rows.size(), first_run);
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].as_string().rfind("renamed-", 0), std::string::npos)
        << RowToString(row);
  }
}

TEST_F(OpsTest, StreamStreamJoinMatchesWithinWindowOnly) {
  auto schema = TestSchema();
  StreamStreamJoinOperator join({{1, 1}}, 0, 0, 1000, 1000, nullptr,
                                std::make_shared<AvroRowSerde>(schema),
                                std::make_shared<AvroRowSerde>(schema), "ssj");
  auto sink = std::make_shared<SinkOperator>();
  join.SetNext(sink);
  auto ctx = Ctx();
  Bind(join, *sink);
  ASSERT_TRUE(join.Init(ctx).ok());

  // Left at t=1000, right at t=1500 (in window), right at t=5000 (out).
  TupleEvent l = Ev(1000, 7, 1, 0);
  l.side = 0;
  ASSERT_TRUE(join.Process(l, ctx).ok());
  TupleEvent r1 = Ev(1500, 7, 2, 0);
  r1.side = 1;
  ASSERT_TRUE(join.Process(r1, ctx).ok());
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0].rowtime, 1500);
  EXPECT_EQ(sink->events[0].row.size(), 6u);

  TupleEvent r2 = Ev(5000, 7, 3, 1);
  r2.side = 1;
  ASSERT_TRUE(join.Process(r2, ctx).ok());
  EXPECT_EQ(sink->events.size(), 1u);  // out of window: no new match

  // Different key never matches even within the window.
  TupleEvent r3 = Ev(1200, 8, 4, 2);
  r3.side = 1;
  ASSERT_TRUE(join.Process(r3, ctx).ok());
  EXPECT_EQ(sink->events.size(), 1u);
}

TEST_F(OpsTest, StreamStreamJoinPurgesByOppositeWatermark) {
  auto schema = TestSchema();
  StreamStreamJoinOperator join({{1, 1}}, 0, 0, 1000, 1000, nullptr,
                                std::make_shared<AvroRowSerde>(schema),
                                std::make_shared<AvroRowSerde>(schema), "ssj");
  auto sink = std::make_shared<SinkOperator>();
  join.SetNext(sink);
  auto ctx = Ctx();
  Bind(join, *sink);
  ASSERT_TRUE(join.Init(ctx).ok());

  for (int i = 0; i < 5; ++i) {
    TupleEvent r = Ev(1000 * i, 7, i, i);
    r.side = 1;
    ASSERT_TRUE(join.Process(r, ctx).ok());
  }
  EXPECT_EQ(join.right_buffer_size(), 5u);
  // Left watermark at t=10000 expires right entries older than 9000.
  TupleEvent l = Ev(10'000, 7, 9, 0);
  l.side = 0;
  ASSERT_TRUE(join.Process(l, ctx).ok());
  EXPECT_LT(join.right_buffer_size(), 5u);
}

TEST_F(OpsTest, RouterBuildsPlanAndRoutes) {
  auto catalog = sql::testutil::PaperCatalog();
  sql::QueryPlanner planner(catalog);
  auto stmt = sql::ParseStatement(
                  "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 10")
                  .value();
  auto plan = planner.Plan(*stmt.select).value();

  auto orders = catalog->GetSource("Orders").value();
  RouterConfig config;
  config.output_topic = "out";
  config.output_serde = std::make_shared<AvroRowSerde>(plan->schema);
  config.fusion = false;  // interpreted DAG: one operator per plan node
  auto router = MessageRouter::Build(MessageRouter::Plan(plan, config));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(router.value()->InputTopics(), std::vector<std::string>{"orders"});
  EXPECT_TRUE(router.value()->BootstrapTopics().empty());
  // Scan + Filter + Project + Insert.
  EXPECT_EQ(router.value()->num_operators(), 4u);
  EXPECT_EQ(router.value()->fused_stage(), nullptr);

  auto ctx = Ctx();
  ASSERT_TRUE(router.value()->Init(ctx).ok());
  AvroRowSerde in_serde(orders.schema);
  IncomingMessage msg;
  msg.origin = {"orders", 0};
  msg.offset = 0;
  msg.message.value = in_serde.SerializeToBytes(
      {Value(int64_t{1}), Value(int32_t{2}), Value(int64_t{3}), Value(int32_t{50}),
       Value("p")});
  ASSERT_TRUE(router.value()->RouteBatch(&msg, 1, ctx, nullptr).ok());
  ASSERT_EQ(collector_.sent.size(), 1u);
  EXPECT_EQ(collector_.sent[0].topic, "out");

  // Unknown topic is an error.
  msg.origin = {"nope", 0};
  EXPECT_FALSE(router.value()->RouteBatch(&msg, 1, ctx, nullptr).ok());
}

TEST_F(OpsTest, RouterFusesTerminalFilterProjectChain) {
  auto catalog = sql::testutil::PaperCatalog();
  sql::QueryPlanner planner(catalog);
  auto stmt = sql::ParseStatement(
                  "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 10")
                  .value();
  auto plan = planner.Plan(*stmt.select).value();

  auto orders = catalog->GetSource("Orders").value();
  RouterConfig config;
  config.output_topic = "out";
  config.output_serde = std::make_shared<AvroRowSerde>(plan->schema);
  auto router = MessageRouter::Build(MessageRouter::Plan(plan, config));  // fusion defaults on
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  // The whole terminal scan<-filter<-project chain (plus the insert) is one
  // fused stage, so the router holds exactly one operator.
  EXPECT_EQ(router.value()->num_operators(), 1u);
  ASSERT_NE(router.value()->fused_stage(), nullptr);
  EXPECT_EQ(router.value()->fused_stage()->label(), "fused<op0..op2>");
  EXPECT_EQ(router.value()->InputTopics(), std::vector<std::string>{"orders"});

  auto ctx = Ctx();
  ASSERT_TRUE(router.value()->Init(ctx).ok());
  AvroRowSerde in_serde(orders.schema);
  IncomingMessage msg;
  msg.origin = {"orders", 0};
  msg.offset = 0;
  msg.message.value = in_serde.SerializeToBytes(
      {Value(int64_t{1}), Value(int32_t{2}), Value(int64_t{3}), Value(int32_t{50}),
       Value("p")});
  ASSERT_TRUE(router.value()->RouteBatch(&msg, 1, ctx, nullptr).ok());
  ASSERT_EQ(collector_.sent.size(), 1u);
  EXPECT_EQ(collector_.sent[0].topic, "out");

  // A filtered-out tuple is dropped, not sent.
  msg.message.value = in_serde.SerializeToBytes(
      {Value(int64_t{2}), Value(int32_t{2}), Value(int64_t{4}), Value(int32_t{5}),
       Value("p")});
  ASSERT_TRUE(router.value()->RouteBatch(&msg, 1, ctx, nullptr).ok());
  EXPECT_EQ(collector_.sent.size(), 1u);
}

TEST_F(OpsTest, RouterFusesStreamRelationJoinAndBuildsOnlyTheRelationSide) {
  auto catalog = sql::testutil::PaperCatalog();
  sql::QueryPlanner planner(catalog);
  auto stmt = sql::ParseStatement(
                  "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders "
                  "JOIN Products ON Orders.productId = Products.productId")
                  .value();
  auto plan = planner.Plan(*stmt.select).value();
  RouterConfig config;
  config.output_topic = "out";
  config.output_serde = std::make_shared<AvroRowSerde>(plan->schema);

  // sql.fusion=off keeps the whole interpreted DAG.
  config.fusion = false;
  auto interpreted = MessageRouter::Build(MessageRouter::Plan(plan, config));
  ASSERT_TRUE(interpreted.ok());
  EXPECT_EQ(interpreted.value()->fused_stage(), nullptr);
  EXPECT_EQ(interpreted.value()->num_operators(), 5u);  // project, join, 2 scans, insert

  config.fusion = true;
  auto router = MessageRouter::Build(MessageRouter::Plan(plan, config));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  // Project op0, join op1 and the Orders scan op2 are one stage; only the
  // Products scan (op3) and the join's relation upsert stay operators.
  ASSERT_NE(router.value()->fused_stage(), nullptr);
  EXPECT_EQ(router.value()->fused_stage()->label(), "fused<op0..op2>");
  EXPECT_EQ(router.value()->num_operators(), 3u);
  EXPECT_EQ(router.value()->InputTopics(),
            (std::vector<std::string>{"orders", "products"}));
  EXPECT_EQ(router.value()->BootstrapTopics(), std::vector<std::string>{"products"});

  auto ctx = Ctx();
  ASSERT_TRUE(router.value()->Init(ctx).ok());
  AvroRowSerde orders(catalog->GetSource("Orders").value().schema);
  AvroRowSerde products(catalog->GetSource("Products").value().schema);
  IncomingMessage rel;
  rel.origin = {"products", 0};
  rel.message.value = products.SerializeToBytes(
      {Value(int32_t{2}), Value("widget"), Value(int32_t{9})});
  ASSERT_TRUE(router.value()->RouteBatch(&rel, 1, ctx, nullptr).ok());
  IncomingMessage hit;
  hit.origin = {"orders", 0};
  hit.message.value = orders.SerializeToBytes(
      {Value(int64_t{1}), Value(int32_t{2}), Value(int64_t{3}), Value(int32_t{50}),
       Value("p")});
  IncomingMessage miss = hit;
  miss.message.value = orders.SerializeToBytes(
      {Value(int64_t{2}), Value(int32_t{4}), Value(int64_t{5}), Value(int32_t{50}),
       Value("p")});
  const IncomingMessage run[] = {hit, miss};
  size_t consumed = 0;
  ASSERT_TRUE(router.value()->RouteBatch(run, 2, ctx, &consumed).ok());
  EXPECT_EQ(consumed, 2u);
  ASSERT_EQ(collector_.sent.size(), 1u);  // the miss is an inner-join drop
  EXPECT_EQ(collector_.sent[0].topic, "out");
  AvroRowSerde out(plan->schema);
  auto row = out.DeserializeBytes(collector_.sent[0].value);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row.value(), (Row{Value(int64_t{3}), Value(int32_t{9})}));
}

TEST_F(OpsTest, RouterStoreNamesMatchBetweenPasses) {
  auto catalog = sql::testutil::PaperCatalog();
  sql::QueryPlanner planner(catalog);
  auto stmt = sql::ParseStatement(
                  "SELECT STREAM Orders.orderId, Products.supplierId FROM Orders "
                  "JOIN Products ON Orders.productId = Products.productId")
                  .value();
  auto plan = planner.Plan(*stmt.select).value();
  auto stores = MessageRouter::RequiredStores(*plan);
  ASSERT_TRUE(stores.ok());
  ASSERT_EQ(stores.value().size(), 1u);

  // Configure exactly the reported stores and build: Init must find them.
  RouterConfig config;
  config.output_topic = "out";
  config.output_serde = std::make_shared<AvroRowSerde>(plan->schema);
  auto router = MessageRouter::Build(MessageRouter::Plan(plan, config));
  ASSERT_TRUE(router.ok());
  EXPECT_FALSE(router.value()->BootstrapTopics().empty());
  auto ctx = Ctx();  // FakeTaskContext creates stores on demand
  EXPECT_TRUE(router.value()->Init(ctx).ok());
}

TEST_F(OpsTest, SerdeForFormatVariants) {
  auto schema = TestSchema();
  EXPECT_TRUE(SerdeForFormat("avro", schema).ok());
  EXPECT_TRUE(SerdeForFormat("json", schema).ok());
  EXPECT_TRUE(SerdeForFormat("reflective", schema).ok());
  EXPECT_TRUE(SerdeForFormat("", schema).ok());
  EXPECT_FALSE(SerdeForFormat("xml", schema).ok());
}

}  // namespace
}  // namespace sqs::ops
