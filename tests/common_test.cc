#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/value.h"

namespace sqs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_THROW(r.value(), std::runtime_error);
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value().kind(), TypeKind::kNull);
  EXPECT_EQ(Value(true).kind(), TypeKind::kBool);
  EXPECT_EQ(Value(int32_t{7}).kind(), TypeKind::kInt32);
  EXPECT_EQ(Value(int64_t{7}).kind(), TypeKind::kInt64);
  EXPECT_EQ(Value(3.5).kind(), TypeKind::kDouble);
  EXPECT_EQ(Value("hi").kind(), TypeKind::kString);
  EXPECT_EQ(Value(ValueArray{Value(int64_t{1})}).kind(), TypeKind::kArray);
  EXPECT_EQ(Value(ValueMap{{"k", Value(int64_t{1})}}).kind(), TypeKind::kMap);
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int32_t{1}).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_EQ(Value(int32_t{5}), Value(int64_t{5}));
  EXPECT_EQ(Value(int64_t{5}), Value(5.0));
  EXPECT_LT(Value(int64_t{4}), Value(4.5));
  EXPECT_LT(Value(4.5), Value(int64_t{5}));
}

TEST(ValueTest, NumericEqualityImpliesHashEquality) {
  EXPECT_EQ(Value(int32_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(5.0).Hash());
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value("a"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("abc"), Value("abc"));
}

TEST(ValueTest, ArrayOrderingLexicographic) {
  Value a(ValueArray{Value(int64_t{1}), Value(int64_t{2})});
  Value b(ValueArray{Value(int64_t{1}), Value(int64_t{3})});
  Value c(ValueArray{Value(int64_t{1})});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_EQ(a, Value(ValueArray{Value(int64_t{1}), Value(int64_t{2})}));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value(ValueArray{Value(int64_t{1}), Value(int64_t{2})}).ToString(), "[1, 2]");
  EXPECT_EQ(RowToString({Value(int64_t{1}), Value("a")}), "(1, a)");
}

TEST(BytesTest, VarintRoundTripSpecificValues) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{63}, int64_t{64},
                    int64_t{-64}, int64_t{-65}, int64_t{1} << 40,
                    -(int64_t{1} << 40), INT64_MAX, INT64_MIN}) {
    BytesWriter w;
    w.WriteVarint(v);
    BytesReader r(w.data());
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_EQ(got.value(), v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BytesTest, VarintRoundTripRandomized) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = static_cast<int64_t>(rng());
    BytesWriter w;
    w.WriteVarint(v);
    BytesReader r(w.data());
    ASSERT_EQ(r.ReadVarint().value(), v);
  }
}

TEST(BytesTest, SmallVarintsAreCompact) {
  BytesWriter w;
  w.WriteVarint(1);
  EXPECT_EQ(w.size(), 1u);  // zigzag(1) = 2, one byte
}

TEST(BytesTest, MixedStreamRoundTrip) {
  BytesWriter w;
  w.WriteBool(true);
  w.WriteVarint(-12345);
  w.WriteDouble(3.25);
  w.WriteString("hello world");
  w.WriteFixed32(0xDEADBEEF);
  w.WriteFixed64(0x0123456789ABCDEFull);
  BytesReader r(w.data());
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_EQ(r.ReadVarint().value(), -12345);
  EXPECT_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_EQ(r.ReadString().value(), "hello world");
  EXPECT_EQ(r.ReadFixed32().value(), 0xDEADBEEF);
  EXPECT_EQ(r.ReadFixed64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadsFail) {
  BytesWriter w;
  w.WriteString("abcdef");
  Bytes data = w.Take();
  data.resize(3);  // cut mid-string
  BytesReader r(data);
  EXPECT_FALSE(r.ReadString().ok());

  BytesReader empty(Bytes{});
  EXPECT_FALSE(empty.ReadVarint().ok());
  EXPECT_FALSE(empty.ReadDouble().ok());
  EXPECT_FALSE(empty.ReadFixed64().ok());
}

TEST(ConfigTest, TypedGetters) {
  Config c;
  c.Set("a", "hello");
  c.SetInt("n", 42);
  c.SetBool("b", true);
  EXPECT_EQ(c.Get("a"), "hello");
  EXPECT_EQ(c.GetInt("n"), 42);
  EXPECT_TRUE(c.GetBool("b"));
  EXPECT_EQ(c.Get("missing", "dflt"), "dflt");
  EXPECT_EQ(c.GetInt("missing", 7), 7);
  EXPECT_FALSE(c.GetBool("missing"));
}

TEST(ConfigTest, SubsetStripsPrefix) {
  Config c;
  c.Set("stores.win.changelog", "t1");
  c.Set("stores.agg.changelog", "t2");
  c.Set("other.key", "x");
  auto sub = c.Subset("stores.");
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub["win.changelog"], "t1");
  EXPECT_EQ(sub["agg.changelog"], "t2");
}

TEST(ConfigTest, ListRoundTrip) {
  Config c;
  c.SetList("inputs", {"orders", "products", "bids"});
  auto list = c.GetList("inputs");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "orders");
  EXPECT_EQ(list[2], "bids");
  EXPECT_TRUE(c.GetList("missing").empty());
}

TEST(ConfigTest, PropertiesRoundTrip) {
  Config c;
  c.Set("job.name", "filter-query");
  c.SetInt("job.container.count", 4);
  std::string text = c.ToProperties();
  auto parsed = Config::FromProperties(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Get("job.name"), "filter-query");
  EXPECT_EQ(parsed.value().GetInt("job.container.count"), 4);
}

TEST(ConfigTest, PropertiesParsingRejectsGarbage) {
  EXPECT_FALSE(Config::FromProperties("no equals sign here").ok());
  // Comments and blank lines are fine.
  auto ok = Config::FromProperties("# comment\n\nkey=value\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().Get("key"), "value");
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

// The logger is a process-global singleton; restore defaults on every path.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger& logger = Logger::Instance();
    logger.SetSink(&out_);
    logger.SetClock(std::make_shared<ManualClock>(1786018496123));
    logger.SetLevel(LogLevel::kDebug);
    logger.SetFormat(LogFormat::kPlain);
  }
  void TearDown() override {
    Logger& logger = Logger::Instance();
    logger.SetSink(nullptr);
    logger.SetClock(nullptr);
    logger.SetLevel(LogLevel::kWarn);
    logger.SetFormat(LogFormat::kPlain);
  }
  std::string Drain() {
    std::string s = out_.str();
    out_.str("");
    return s;
  }
  std::ostringstream out_;
};

TEST_F(LoggingTest, PlainFormatHasTimestampComponentAndFields) {
  SQS_INFOC("container", "started", {"job", "q0"}, {"tasks", "4"});
  std::string line = Drain();
  // ISO-8601 UTC timestamp from the injected clock.
  EXPECT_NE(line.find("2026-08-06T12:14:56.123Z"), std::string::npos) << line;
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("[container]"), std::string::npos);
  EXPECT_NE(line.find("started job=q0 tasks=4"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');
}

TEST_F(LoggingTest, JsonFormatEscapesAndCarriesFields) {
  Logger::Instance().SetFormat(LogFormat::kJson);
  SQS_WARNC("broker", "bad \"topic\"", {"name", "a\\b"});
  std::string line = Drain();
  EXPECT_NE(line.find("{\"ts_ms\":1786018496123,\"level\":\"WARN\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"component\":\"broker\""), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"bad \\\"topic\\\"\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"name\":\"a\\\\b\""), std::string::npos) << line;
}

TEST_F(LoggingTest, RecordsBelowLevelAreDropped) {
  Logger::Instance().SetLevel(LogLevel::kError);
  SQS_DEBUGC("shell", "noise");
  SQS_INFOC("shell", "noise");
  SQS_WARNC("shell", "noise");
  EXPECT_EQ(Drain(), "");
  SQS_ERRORC("shell", "kept");
  EXPECT_NE(Drain().find("kept"), std::string::npos);
  Logger::Instance().SetLevel(LogLevel::kOff);
  SQS_ERRORC("shell", "muted");
  EXPECT_EQ(Drain(), "");
}

TEST_F(LoggingTest, ApplyLogConfigMapsKeysAndIgnoresAbsentOnes) {
  Config config;
  config.Set("log.level", "debug");
  config.Set("log.format", "json");
  ApplyLogConfig(config);
  EXPECT_EQ(Logger::Instance().level(), LogLevel::kDebug);
  EXPECT_EQ(Logger::Instance().format(), LogFormat::kJson);
  // Absent keys leave the current settings untouched.
  ApplyLogConfig(Config{});
  EXPECT_EQ(Logger::Instance().level(), LogLevel::kDebug);
  EXPECT_EQ(Logger::Instance().format(), LogFormat::kJson);
  Config off;
  off.Set("log.level", "off");
  off.Set("log.format", "plain");
  ApplyLogConfig(off);
  EXPECT_EQ(Logger::Instance().level(), LogLevel::kOff);
  EXPECT_EQ(Logger::Instance().format(), LogFormat::kPlain);
}

}  // namespace
}  // namespace sqs
