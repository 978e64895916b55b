#include <gtest/gtest.h>

#include <random>

#include "serde/json.h"
#include "serde/registry.h"
#include "serde/schema.h"
#include "serde/serde.h"

namespace sqs {
namespace {

SchemaPtr OrdersSchema() {
  return Schema::Make("Orders", {{"rowtime", FieldType::Int64(), false},
                                 {"productId", FieldType::Int32(), false},
                                 {"orderId", FieldType::Int64(), false},
                                 {"units", FieldType::Int32(), false},
                                 {"pad", FieldType::String(), true}});
}

Row SampleOrder() {
  return {Value(int64_t{1700000000000}), Value(int32_t{17}), Value(int64_t{12345}),
          Value(int32_t{30}), Value("xxxxxxxxxx")};
}

TEST(SchemaTest, FieldIndexLookup) {
  auto s = OrdersSchema();
  EXPECT_EQ(s->FieldIndex("rowtime"), 0u);
  EXPECT_EQ(s->FieldIndex("units"), 3u);
  EXPECT_FALSE(s->FieldIndex("nope").has_value());
}

TEST(SchemaTest, ValidateAcceptsConformingRow) {
  EXPECT_TRUE(OrdersSchema()->Validate(SampleOrder()).ok());
}

TEST(SchemaTest, ValidateRejectsArityMismatch) {
  Row row = SampleOrder();
  row.pop_back();
  EXPECT_FALSE(OrdersSchema()->Validate(row).ok());
}

TEST(SchemaTest, ValidateRejectsNullInNonNullable) {
  Row row = SampleOrder();
  row[0] = Value::Null();
  EXPECT_FALSE(OrdersSchema()->Validate(row).ok());
}

TEST(SchemaTest, ValidateAcceptsNullInNullable) {
  Row row = SampleOrder();
  row[4] = Value::Null();
  EXPECT_TRUE(OrdersSchema()->Validate(row).ok());
}

TEST(SchemaTest, ValidateAllowsIntWidening) {
  auto s = Schema::Make("T", {{"x", FieldType::Int64(), false}});
  EXPECT_TRUE(s->Validate({Value(int32_t{5})}).ok());
  auto d = Schema::Make("T", {{"x", FieldType::Double(), false}});
  EXPECT_TRUE(d->Validate({Value(int64_t{5})}).ok());
  // But not narrowing.
  auto i = Schema::Make("T", {{"x", FieldType::Int32(), false}});
  EXPECT_FALSE(i->Validate({Value(3.5)}).ok());
}

TEST(SchemaTest, CanonicalRoundTrip) {
  auto s = Schema::Make("Mixed", {{"a", FieldType::Int64(), false},
                                  {"b", FieldType::String(), true},
                                  {"c", FieldType::Array(TypeKind::kInt32), false},
                                  {"d", FieldType::Map(TypeKind::kDouble), true}});
  auto parsed = Schema::ParseCanonical(s->Canonical());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value()->Equals(*s));
}

TEST(SchemaTest, CanonicalParseRejectsGarbage) {
  EXPECT_FALSE(Schema::ParseCanonical("no parens").ok());
  EXPECT_FALSE(Schema::ParseCanonical("T(x)").ok());
  EXPECT_FALSE(Schema::ParseCanonical("T(x:floof)").ok());
}

TEST(AvroSerdeTest, RoundTripBasic) {
  AvroRowSerde serde(OrdersSchema());
  Row row = SampleOrder();
  Bytes bytes = serde.SerializeToBytes(row);
  auto back = serde.DeserializeBytes(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), row);
}

TEST(AvroSerdeTest, RoundTripNulls) {
  AvroRowSerde serde(OrdersSchema());
  Row row = SampleOrder();
  row[4] = Value::Null();
  auto back = serde.DeserializeBytes(serde.SerializeToBytes(row));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value()[4].is_null());
}

TEST(AvroSerdeTest, NoFieldNamesOnWire) {
  // Positional encoding: the payload must be much smaller than the
  // reflective encoding which carries names.
  AvroRowSerde avro(OrdersSchema());
  ReflectiveRowSerde refl(OrdersSchema());
  Row row = SampleOrder();
  EXPECT_LT(avro.SerializeToBytes(row).size(), refl.SerializeToBytes(row).size());
}

TEST(AvroSerdeTest, RejectsNullInNonNullable) {
  AvroRowSerde serde(OrdersSchema());
  Row row = SampleOrder();
  row[1] = Value::Null();
  BytesWriter w;
  EXPECT_FALSE(serde.Serialize(row, w).ok());
}

TEST(AvroSerdeTest, RejectsArityMismatch) {
  AvroRowSerde serde(OrdersSchema());
  BytesWriter w;
  EXPECT_FALSE(serde.Serialize({Value(int64_t{1})}, w).ok());
}

TEST(AvroSerdeTest, TruncatedPayloadFails) {
  AvroRowSerde serde(OrdersSchema());
  Bytes bytes = serde.SerializeToBytes(SampleOrder());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(serde.DeserializeBytes(bytes).ok());
}

TEST(AvroSerdeTest, CollectionsRoundTrip) {
  auto s = Schema::Make("C", {{"tags", FieldType::Array(TypeKind::kString), false},
                              {"scores", FieldType::Map(TypeKind::kDouble), false}});
  AvroRowSerde serde(s);
  Row row = {Value(ValueArray{Value("a"), Value("b")}),
             Value(ValueMap{{"x", Value(1.5)}, {"y", Value(2.5)}})};
  auto back = serde.DeserializeBytes(serde.SerializeToBytes(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), row);
}

TEST(ReflectiveSerdeTest, RoundTrip) {
  ReflectiveRowSerde serde(OrdersSchema());
  Row row = SampleOrder();
  auto back = serde.DeserializeBytes(serde.SerializeToBytes(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), row);
}

TEST(ReflectiveSerdeTest, ResolvesFieldsByNameAcrossReorderedSchema) {
  // Writer uses one field order; reader's schema lists fields differently.
  auto writer_schema = Schema::Make(
      "T", {{"a", FieldType::Int64(), false}, {"b", FieldType::String(), false}});
  auto reader_schema = Schema::Make(
      "T", {{"b", FieldType::String(), true}, {"a", FieldType::Int64(), true}});
  ReflectiveRowSerde writer(writer_schema);
  ReflectiveRowSerde reader(reader_schema);
  Bytes bytes = writer.SerializeToBytes({Value(int64_t{9}), Value("s")});
  auto back = reader.DeserializeBytes(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[0], Value("s"));
  EXPECT_EQ(back.value()[1], Value(int64_t{9}));
}

TEST(ReflectiveSerdeTest, UnknownFieldsSkipped) {
  auto writer_schema = Schema::Make(
      "T", {{"a", FieldType::Int64(), false}, {"zz", FieldType::Int64(), false}});
  auto reader_schema = Schema::Make("T", {{"a", FieldType::Int64(), true}});
  ReflectiveRowSerde writer(writer_schema);
  ReflectiveRowSerde reader(reader_schema);
  auto back = reader.DeserializeBytes(
      writer.SerializeToBytes({Value(int64_t{1}), Value(int64_t{2})}));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 1u);
  EXPECT_EQ(back.value()[0], Value(int64_t{1}));
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_EQ(ParseJson("42").value(), Value(int64_t{42}));
  EXPECT_EQ(ParseJson("-7").value(), Value(int64_t{-7}));
  EXPECT_EQ(ParseJson("2.5").value(), Value(2.5));
  EXPECT_EQ(ParseJson("true").value(), Value(true));
  EXPECT_EQ(ParseJson("null").value(), Value::Null());
  EXPECT_EQ(ParseJson("\"hi\\n\"").value(), Value("hi\n"));
}

TEST(JsonTest, ParsesNested) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const ValueMap& m = v.value().as_map();
  ASSERT_EQ(m.size(), 2u);
  const ValueArray& arr = m.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[2].as_map().at("b").as_bool());
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
}

TEST(JsonTest, PrintParseRoundTrip) {
  Value v(ValueMap{{"n", Value(int64_t{5})},
                   {"s", Value("a\"b\\c")},
                   {"arr", Value(ValueArray{Value(true), Value::Null()})}});
  auto back = ParseJson(ToJson(v));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), v);
}

TEST(JsonRowSerdeTest, RoundTrip) {
  JsonRowSerde serde(OrdersSchema());
  Row row = SampleOrder();
  auto back = serde.DeserializeBytes(serde.SerializeToBytes(row));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), row);
}

TEST(JsonRowSerdeTest, MissingNullableFieldBecomesNull) {
  auto s = Schema::Make("T", {{"a", FieldType::Int64(), false},
                              {"b", FieldType::String(), true}});
  JsonRowSerde serde(s);
  Bytes bytes = ToBytes(R"({"a": 1})");
  auto back = serde.DeserializeBytes(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value()[1].is_null());
}

TEST(JsonRowSerdeTest, MissingRequiredFieldFails) {
  auto s = Schema::Make("T", {{"a", FieldType::Int64(), false}});
  JsonRowSerde serde(s);
  EXPECT_FALSE(serde.DeserializeBytes(ToBytes("{}")).ok());
}

TEST(OrderedKeyTest, PreservesIntegerOrder) {
  std::vector<int64_t> values = {INT64_MIN, -100, -1, 0, 1, 7, 100, INT64_MAX};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeOrderedKey(Value(values[i])), EncodeOrderedKey(Value(values[i + 1])))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(OrderedKeyTest, PreservesDoubleOrder) {
  std::vector<double> values = {-1e30, -2.5, -0.0, 0.0, 1e-10, 3.5, 1e30};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LE(EncodeOrderedKey(Value(values[i])), EncodeOrderedKey(Value(values[i + 1])));
  }
}

TEST(OrderedKeyTest, PreservesStringOrder) {
  EXPECT_LT(EncodeOrderedKey(Value("abc")), EncodeOrderedKey(Value("abd")));
  EXPECT_LT(EncodeOrderedKey(Value("ab")), EncodeOrderedKey(Value("abc")));
}

TEST(OrderedKeyTest, CompositeKeysOrderByFirstComponentThenSecond) {
  Row a = {Value(int64_t{1}), Value(int64_t{99})};
  Row b = {Value(int64_t{2}), Value(int64_t{0})};
  Row c = {Value(int64_t{2}), Value(int64_t{1})};
  EXPECT_LT(EncodeOrderedKey(a), EncodeOrderedKey(b));
  EXPECT_LT(EncodeOrderedKey(b), EncodeOrderedKey(c));
}

TEST(OrderedKeyTest, RandomizedIntegerOrderProperty) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng());
    int64_t b = static_cast<int64_t>(rng());
    bool key_lt = EncodeOrderedKey(Value(a)) < EncodeOrderedKey(Value(b));
    EXPECT_EQ(key_lt, a < b) << a << " " << b;
  }
}

// The tagged encoding the window operator keeps its scalar state in.
TEST(TaggedValueTest, RoundTripsAllKinds) {
  for (const Value& v : {Value(int64_t{-5}), Value(2.5), Value("str"),
                         Value(true), Value::Null()}) {
    BytesWriter w(16);
    ASSERT_TRUE(SerializeTaggedValue(v, w).ok());
    Bytes bytes = w.Take();
    BytesReader r(bytes);
    auto back = DeserializeTaggedValue(r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    if (v.is_null()) {
      EXPECT_TRUE(back.value().is_null());
    } else {
      EXPECT_EQ(back.value(), v);
    }
  }
}

TEST(RegistryTest, RegisterAndFetch) {
  SchemaRegistry reg;
  auto r = reg.Register("Orders", OrdersSchema());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().version, 1);
  auto latest = reg.GetLatest("Orders");
  ASSERT_TRUE(latest.ok());
  EXPECT_TRUE(latest.value().schema->Equals(*OrdersSchema()));
  auto by_id = reg.GetById(r.value().id);
  ASSERT_TRUE(by_id.ok());
  EXPECT_TRUE(by_id.value().schema->Equals(*OrdersSchema()));
}

TEST(RegistryTest, IdempotentReregistration) {
  SchemaRegistry reg;
  auto r1 = reg.Register("Orders", OrdersSchema());
  auto r2 = reg.Register("Orders", OrdersSchema());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().id, r2.value().id);
  EXPECT_EQ(r2.value().version, 1);
}

TEST(RegistryTest, CompatibleEvolutionAddsVersion) {
  SchemaRegistry reg;
  ASSERT_TRUE(reg.Register("Orders", OrdersSchema()).ok());
  auto evolved = Schema::Make("Orders", {{"rowtime", FieldType::Int64(), false},
                                         {"productId", FieldType::Int32(), false},
                                         {"orderId", FieldType::Int64(), false},
                                         {"units", FieldType::Int32(), false},
                                         {"pad", FieldType::String(), true},
                                         {"channel", FieldType::String(), true}});
  auto r = reg.Register("Orders", evolved);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().version, 2);
}

TEST(RegistryTest, RejectsFieldRemoval) {
  SchemaRegistry reg;
  ASSERT_TRUE(reg.Register("Orders", OrdersSchema()).ok());
  auto shrunk = Schema::Make("Orders", {{"rowtime", FieldType::Int64(), false}});
  EXPECT_FALSE(reg.Register("Orders", shrunk).ok());
}

TEST(RegistryTest, RejectsNonNullableNewField) {
  SchemaRegistry reg;
  auto base = Schema::Make("T", {{"a", FieldType::Int64(), false}});
  ASSERT_TRUE(reg.Register("T", base).ok());
  auto bad = Schema::Make("T", {{"a", FieldType::Int64(), false},
                                {"b", FieldType::Int64(), false}});
  EXPECT_FALSE(reg.Register("T", bad).ok());
}

TEST(RegistryTest, RejectsIncompatibleTypeChange) {
  SchemaRegistry reg;
  auto base = Schema::Make("T", {{"a", FieldType::String(), false}});
  ASSERT_TRUE(reg.Register("T", base).ok());
  auto bad = Schema::Make("T", {{"a", FieldType::Int64(), false}});
  EXPECT_FALSE(reg.Register("T", bad).ok());
}

TEST(RegistryTest, AllowsNumericWidening) {
  SchemaRegistry reg;
  auto base = Schema::Make("T", {{"a", FieldType::Int32(), false}});
  ASSERT_TRUE(reg.Register("T", base).ok());
  auto widened = Schema::Make("T", {{"a", FieldType::Int64(), false}});
  EXPECT_TRUE(reg.Register("T", widened).ok());
}

// Property: all three serdes round-trip randomized rows over a mixed schema.
class SerdeRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SerdeRoundTrip, RandomizedRows) {
  auto schema = Schema::Make("R", {{"i32", FieldType::Int32(), false},
                                   {"i64", FieldType::Int64(), true},
                                   {"d", FieldType::Double(), false},
                                   {"s", FieldType::String(), true},
                                   {"b", FieldType::Bool(), false}});
  std::unique_ptr<RowSerde> serde;
  if (GetParam() == "avro") {
    serde = std::make_unique<AvroRowSerde>(schema);
  } else if (GetParam() == "reflective") {
    serde = std::make_unique<ReflectiveRowSerde>(schema);
  } else {
    serde = std::make_unique<JsonRowSerde>(schema);
  }
  std::mt19937_64 rng(GetParam().size() * 1000003);
  for (int i = 0; i < 300; ++i) {
    Row row;
    row.push_back(Value(static_cast<int32_t>(rng())));
    row.push_back(rng() % 4 == 0 ? Value::Null() : Value(static_cast<int64_t>(rng())));
    row.push_back(Value(static_cast<double>(static_cast<int64_t>(rng())) / 1024.0));
    if (rng() % 4 == 0) {
      row.push_back(Value::Null());
    } else {
      std::string s;
      for (size_t j = rng() % 20; j > 0; --j) s += static_cast<char>('a' + rng() % 26);
      row.push_back(Value(std::move(s)));
    }
    row.push_back(Value(static_cast<bool>(rng() % 2)));
    auto back = serde->DeserializeBytes(serde->SerializeToBytes(row));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.value(), row) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSerdes, SerdeRoundTrip,
                         ::testing::Values("avro", "reflective", "json"));

}  // namespace
}  // namespace sqs
