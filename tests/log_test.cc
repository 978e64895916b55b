#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <set>

#include "log/broker.h"
#include "log/consumer.h"
#include "log/producer.h"
#include "log/record_log.h"

namespace sqs {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = ToBytes(key);
  m.value = ToBytes(value);
  return m;
}

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<Broker>();
    ASSERT_TRUE(broker_->CreateTopic("t", {.num_partitions = 4}).ok());
  }
  BrokerPtr broker_;
};

TEST_F(BrokerTest, CreateTopicValidation) {
  EXPECT_FALSE(broker_->CreateTopic("", {.num_partitions = 1}).ok());
  EXPECT_FALSE(broker_->CreateTopic("bad", {.num_partitions = 0}).ok());
  EXPECT_EQ(broker_->CreateTopic("t", {.num_partitions = 1}).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_TRUE(broker_->HasTopic("t"));
  EXPECT_FALSE(broker_->HasTopic("nope"));
  EXPECT_EQ(broker_->NumPartitions("t").value(), 4);
}

TEST_F(BrokerTest, OffsetsAreDenseFromZero) {
  for (int i = 0; i < 10; ++i) {
    auto off = broker_->Append({"t", 1}, Msg("k", "v" + std::to_string(i)));
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(off.value(), i);
  }
  EXPECT_EQ(broker_->EndOffset({"t", 1}).value(), 10);
  EXPECT_EQ(broker_->BeginOffset({"t", 1}).value(), 0);
  // Other partitions are untouched.
  EXPECT_EQ(broker_->EndOffset({"t", 0}).value(), 0);
}

TEST_F(BrokerTest, FetchReturnsInOrder) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker_->Append({"t", 0}, Msg("k", std::to_string(i))).ok());
  }
  auto batch = broker_->Fetch({"t", 0}, 1, 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 3u);
  EXPECT_EQ(batch.value()[0].offset, 1);
  EXPECT_EQ(FromBytes(batch.value()[0].message.value), "1");
  EXPECT_EQ(batch.value()[2].offset, 3);
}

TEST_F(BrokerTest, FetchPastEndReturnsEmpty) {
  ASSERT_TRUE(broker_->Append({"t", 0}, Msg("k", "v")).ok());
  EXPECT_TRUE(broker_->Fetch({"t", 0}, 1, 10).value().empty());
  EXPECT_TRUE(broker_->Fetch({"t", 0}, 5, 10).value().empty());
}

TEST_F(BrokerTest, FetchUnknownPartitionFails) {
  EXPECT_FALSE(broker_->Fetch({"t", 9}, 0, 1).ok());
  EXPECT_FALSE(broker_->Fetch({"nope", 0}, 0, 1).ok());
}

TEST_F(BrokerTest, ReplayFromAnyOffsetYieldsIdenticalSuffix) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(broker_->Append({"t", 2}, Msg("k", std::to_string(i))).ok());
  }
  auto full = broker_->Fetch({"t", 2}, 0, 1000).value();
  for (int64_t start : {0, 17, 50, 99}) {
    auto replay = broker_->Fetch({"t", 2}, start, 1000).value();
    ASSERT_EQ(replay.size(), full.size() - start);
    for (size_t i = 0; i < replay.size(); ++i) {
      EXPECT_EQ(replay[i].offset, full[start + i].offset);
      EXPECT_EQ(replay[i].message.value, full[start + i].message.value);
    }
  }
}

TEST_F(BrokerTest, RetentionAdvancesLogStart) {
  ASSERT_TRUE(
      broker_->CreateTopic("r", {.num_partitions = 1, .retention_messages = 5}).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(broker_->Append({"r", 0}, Msg("k", std::to_string(i))).ok());
  }
  ASSERT_TRUE(broker_->EnforceRetention("r").ok());
  EXPECT_EQ(broker_->BeginOffset({"r", 0}).value(), 7);
  EXPECT_EQ(broker_->EndOffset({"r", 0}).value(), 12);
  // Reading below the new start fails; reading the survivors works and
  // offsets are stable.
  EXPECT_FALSE(broker_->Fetch({"r", 0}, 0, 10).ok());
  auto batch = broker_->Fetch({"r", 0}, 7, 10).value();
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(FromBytes(batch[0].message.value), "7");
}

TEST_F(BrokerTest, CompactionKeepsLatestPerKey) {
  ASSERT_TRUE(broker_->CreateTopic("c", {.num_partitions = 1, .compacted = true}).ok());
  ASSERT_TRUE(broker_->Append({"c", 0}, Msg("a", "1")).ok());
  ASSERT_TRUE(broker_->Append({"c", 0}, Msg("b", "2")).ok());
  ASSERT_TRUE(broker_->Append({"c", 0}, Msg("a", "3")).ok());
  ASSERT_TRUE(broker_->Compact("c").ok());
  EXPECT_EQ(broker_->TopicSize("c").value(), 2);
  auto begin = broker_->BeginOffset({"c", 0}).value();
  auto batch = broker_->Fetch({"c", 0}, begin, 10).value();
  ASSERT_EQ(batch.size(), 2u);
  // Order of survivors preserved: b=2 then a=3.
  EXPECT_EQ(FromBytes(batch[0].message.value), "2");
  EXPECT_EQ(FromBytes(batch[1].message.value), "3");
  // Compacting a non-compacted topic is an error.
  EXPECT_FALSE(broker_->Compact("t").ok());
}

// Every Message field survives Append then Fetch: the heap log encodes each
// record and the fetch decodes it, so each field must make the round trip.
void ExpectSameMessage(const Message& got, const Message& want) {
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.timestamp, want.timestamp);
  EXPECT_EQ(got.ingest_us, want.ingest_us);
  EXPECT_EQ(got.append_us, want.append_us);
  EXPECT_EQ(got.producer_id, want.producer_id);
  EXPECT_EQ(got.producer_epoch, want.producer_epoch);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.crc, want.crc);
  EXPECT_EQ(got.has_crc, want.has_crc);
  EXPECT_EQ(got.trace.trace_id, want.trace.trace_id);
  EXPECT_EQ(got.trace.span_id, want.trace.span_id);
  EXPECT_EQ(got.trace.sampled, want.trace.sampled);
}

TEST_F(BrokerTest, AppendFetchRoundTripsEveryField) {
  auto identity = broker_->RegisterProducer("round-trip");
  ASSERT_TRUE(identity.ok());
  std::vector<Message> sent;

  Message stamped = Msg("key", "value");
  stamped.timestamp = 1'700'000'000'123;
  stamped.ingest_us = 1'700'000'000'123'456;
  stamped.append_us = 1'700'000'000'124'000;
  stamped.producer_id = identity.value().pid;
  stamped.producer_epoch = identity.value().epoch;
  stamped.sequence = 0;
  stamped.trace = {.trace_id = 0xfedcba9876543210ull, .span_id = 77, .sampled = true};
  StampMessageCrc(stamped);
  sent.push_back(stamped);

  Message empty_key = Msg("", "v");  // has_crc false; epoch, sequence -1
  empty_key.timestamp = -5;
  empty_key.trace = {.trace_id = 9, .span_id = 0xffffffffffffffffull, .sampled = false};
  sent.push_back(empty_key);

  Message empty_value = Msg("k", "");
  empty_value.crc = 0xdeadbeef;  // a stale crc is stored as is
  sent.push_back(empty_value);

  Message empty_both = Msg("", "");
  StampMessageCrc(empty_both);
  sent.push_back(empty_both);

  Message large = Msg("big", std::string(3 * RecordLog::kChunkBytes + 7, 'x'));
  large.value[12345] = 0;
  large.trace.sampled = true;
  StampMessageCrc(large);
  sent.push_back(large);

  Message after_large = Msg("after", "small");
  after_large.append_us = 3;
  sent.push_back(after_large);

  for (const Message& m : sent) ASSERT_TRUE(broker_->Append({"t", 3}, m).ok());
  auto fetched = broker_->Fetch({"t", 3}, 0, 100);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(fetched.value()[i].offset, static_cast<int64_t>(i));
    ExpectSameMessage(fetched.value()[i].message, sent[i]);
  }
  EXPECT_TRUE(MessageCrcValid(fetched.value()[0].message));
  EXPECT_TRUE(MessageCrcValid(fetched.value()[4].message));
}

TEST_F(BrokerTest, RetentionAcrossChunkBoundaries) {
  ASSERT_TRUE(
      broker_->CreateTopic("r", {.num_partitions = 1, .retention_messages = 4}).ok());
  // Three records fill most of a chunk, so ten span four chunks and
  // retention drops whole chunks and part of one more.
  const size_t value_bytes = RecordLog::kChunkBytes / 3 - 100;
  for (int i = 0; i < 10; ++i) {
    Message m = Msg("k" + std::to_string(i),
                    std::string(value_bytes, static_cast<char>('a' + i)));
    m.timestamp = 1000 + i;
    ASSERT_TRUE(broker_->Append({"r", 0}, std::move(m)).ok());
  }
  ASSERT_TRUE(broker_->EnforceRetention("r").ok());
  EXPECT_EQ(broker_->BeginOffset({"r", 0}).value(), 6);
  EXPECT_EQ(broker_->EndOffset({"r", 0}).value(), 10);
  EXPECT_EQ(broker_->TopicSize("r").value(), 4);
  EXPECT_FALSE(broker_->Fetch({"r", 0}, 5, 10).ok());

  auto batch = broker_->Fetch({"r", 0}, 6, 10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Message& m = batch.value()[static_cast<size_t>(i)].message;
    EXPECT_EQ(FromBytes(m.key), "k" + std::to_string(6 + i));
    EXPECT_EQ(m.value, ToBytes(std::string(value_bytes, static_cast<char>('g' + i))));
    EXPECT_EQ(m.timestamp, 1006 + i);
  }

  const int64_t record_bytes = static_cast<int64_t>(2 + value_bytes);
  auto backlog = broker_->BacklogFrom({"r", 0}, 0);  // clamps to the log start
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(backlog.value().messages, 4);
  EXPECT_EQ(backlog.value().bytes, 4 * record_bytes);
  EXPECT_EQ(backlog.value().oldest_append_ms, 1006);
  backlog = broker_->BacklogFrom({"r", 0}, 8);
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(backlog.value().messages, 2);
  EXPECT_EQ(backlog.value().bytes, 2 * record_bytes);
  EXPECT_EQ(backlog.value().oldest_append_ms, 1008);

  // Appends after retention continue the offsets and the byte ledger.
  ASSERT_EQ(broker_->Append({"r", 0}, Msg("k10", "tail")).value(), 10);
  backlog = broker_->BacklogFrom({"r", 0}, 9);
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(backlog.value().messages, 2);
  EXPECT_EQ(backlog.value().bytes, record_bytes + 3 + 4);
}

// Compaction renumbers: survivors keep their order and are packed against
// the end, so each moves up by the number of records removed after it, the
// log start advances by the number removed, and the end offset stays put.
TEST_F(BrokerTest, CompactionOffsetRule) {
  ASSERT_TRUE(broker_->CreateTopic("c", {.num_partitions = 1, .compacted = true}).ok());
  // offset: 0  1  2  3  4  5  6
  // key:    x  a  b  a  y  b  a
  // Removed: 1, 2 and 3 (a and b are written again later).
  const std::vector<std::string> keys = {"x", "a", "b", "a", "y", "b", "a"};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(broker_->Append({"c", 0}, Msg(keys[i], std::to_string(i))).ok());
  }
  ASSERT_TRUE(broker_->Compact("c").ok());
  EXPECT_EQ(broker_->EndOffset({"c", 0}).value(), 7);
  EXPECT_EQ(broker_->BeginOffset({"c", 0}).value(), 3);
  // old offset -> new offset: x 0 -> 3 (three removed after it), y 4 -> 4,
  // b 5 -> 5, a 6 -> 6.
  const std::vector<std::pair<std::string, int64_t>> want = {
      {"0", 3}, {"4", 4}, {"5", 5}, {"6", 6}};
  auto batch = broker_->Fetch({"c", 0}, 3, 10).value();
  ASSERT_EQ(batch.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(FromBytes(batch[i].message.value), want[i].first);
    EXPECT_EQ(batch[i].offset, want[i].second);
  }

  // Second round: offsets 3..8 hold x y b a y' z, so y@4 goes. It sits
  // after x, which moves 3 -> 4; everything after y@4 stays.
  ASSERT_EQ(broker_->Append({"c", 0}, Msg("y", "7")).value(), 7);
  ASSERT_EQ(broker_->Append({"c", 0}, Msg("z", "8")).value(), 8);
  ASSERT_TRUE(broker_->Compact("c").ok());
  EXPECT_EQ(broker_->EndOffset({"c", 0}).value(), 9);
  EXPECT_EQ(broker_->BeginOffset({"c", 0}).value(), 4);
  const std::vector<std::pair<std::string, int64_t>> want2 = {
      {"0", 4}, {"5", 5}, {"6", 6}, {"7", 7}, {"8", 8}};
  batch = broker_->Fetch({"c", 0}, 4, 10).value();
  ASSERT_EQ(batch.size(), want2.size());
  for (size_t i = 0; i < want2.size(); ++i) {
    EXPECT_EQ(FromBytes(batch[i].message.value), want2[i].first);
    EXPECT_EQ(batch[i].offset, want2[i].second);
  }
}

TEST_F(BrokerTest, DeleteTopic) {
  ASSERT_TRUE(broker_->DeleteTopic("t").ok());
  EXPECT_FALSE(broker_->HasTopic("t"));
  EXPECT_FALSE(broker_->DeleteTopic("t").ok());
}

TEST(ProducerTest, KeyedSendsAreDeterministic) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("t", {.num_partitions = 8}).ok());
  Producer p1(broker), p2(broker);
  // Same key always lands in the same partition, from any producer.
  int32_t expected = Producer::PartitionForKey(ToBytes("user42"), 8);
  ASSERT_TRUE(p1.Send("t", ToBytes("user42"), ToBytes("a")).ok());
  ASSERT_TRUE(p2.Send("t", ToBytes("user42"), ToBytes("b")).ok());
  EXPECT_EQ(broker->EndOffset({"t", expected}).value(), 2);
}

TEST(ProducerTest, KeysSpreadAcrossPartitions) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("t", {.num_partitions = 8}).ok());
  std::set<int32_t> used;
  for (int i = 0; i < 200; ++i) {
    used.insert(Producer::PartitionForKey(ToBytes("key" + std::to_string(i)), 8));
  }
  EXPECT_EQ(used.size(), 8u);  // all partitions hit with 200 keys
}

TEST(ProducerTest, UnkeyedRoundRobins) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("t", {.num_partitions = 4}).ok());
  Producer p(broker);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(p.Send("t", ToBytes("v")).ok());
  for (int part = 0; part < 4; ++part) {
    EXPECT_EQ(broker->EndOffset({"t", part}).value(), 2);
  }
}

class ConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<Broker>();
    ASSERT_TRUE(broker_->CreateTopic("t", {.num_partitions = 3}).ok());
    for (int p = 0; p < 3; ++p) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            broker_->Append({"t", p}, Msg("k", std::to_string(p * 100 + i))).ok());
      }
    }
  }
  BrokerPtr broker_;
};

TEST_F(ConsumerTest, PollDrainsAllAssignedPartitions) {
  Consumer c(broker_, 256);
  for (int p = 0; p < 3; ++p) ASSERT_TRUE(c.Assign({"t", p}, 0).ok());
  int total = 0;
  while (true) {
    auto batch = c.Poll();
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    total += static_cast<int>(batch.value().size());
  }
  EXPECT_EQ(total, 30);
  EXPECT_TRUE(c.CaughtUp().value());
  EXPECT_EQ(c.Lag().value(), 0);
}

TEST_F(ConsumerTest, PreservesPerPartitionOrder) {
  Consumer c(broker_, 4);  // small batches force interleaving
  for (int p = 0; p < 3; ++p) ASSERT_TRUE(c.Assign({"t", p}, 0).ok());
  std::map<int32_t, int64_t> last_offset;
  while (true) {
    auto batch = c.Poll().value();
    if (batch.empty()) break;
    for (const auto& m : batch) {
      auto it = last_offset.find(m.origin.partition);
      if (it != last_offset.end()) {
        EXPECT_GT(m.offset, it->second);
      }
      last_offset[m.origin.partition] = m.offset;
    }
  }
  EXPECT_EQ(last_offset.size(), 3u);
}

TEST_F(ConsumerTest, AssignFromMidOffset) {
  Consumer c(broker_);
  ASSERT_TRUE(c.Assign({"t", 0}, 7).ok());
  auto batch = c.Poll().value();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].offset, 7);
}

TEST_F(ConsumerTest, SeekRewinds) {
  Consumer c(broker_);
  ASSERT_TRUE(c.Assign({"t", 0}, 0).ok());
  while (!c.Poll().value().empty()) {
  }
  EXPECT_TRUE(c.CaughtUp().value());
  ASSERT_TRUE(c.Seek({"t", 0}, 5).ok());
  EXPECT_FALSE(c.CaughtUp().value());
  EXPECT_EQ(c.Lag().value(), 5);
  EXPECT_EQ(c.Poll().value()[0].offset, 5);
}

TEST_F(ConsumerTest, MaxPollBudgetRespected) {
  Consumer c(broker_, 5);
  for (int p = 0; p < 3; ++p) ASSERT_TRUE(c.Assign({"t", p}, 0).ok());
  auto batch = c.Poll().value();
  EXPECT_LE(batch.size(), 5u);
}

TEST_F(ConsumerTest, PerPartitionFetchCapShrinksBatches) {
  Consumer c(broker_, 256);
  c.SetMaxFetchPerPartition(2);
  for (int p = 0; p < 3; ++p) ASSERT_TRUE(c.Assign({"t", p}, 0).ok());
  auto batch = c.Poll().value();
  // 3 partitions x cap 2 = at most 6 per poll even though 30 are available.
  EXPECT_LE(batch.size(), 6u);
  EXPECT_GE(batch.size(), 1u);
}

TEST_F(ConsumerTest, RoundRobinStartPreventsStarvation) {
  Consumer c(broker_, 2);  // tiny budget: only first visited partition served
  c.SetMaxFetchPerPartition(2);
  for (int p = 0; p < 3; ++p) ASSERT_TRUE(c.Assign({"t", p}, 0).ok());
  std::set<int32_t> served;
  for (int i = 0; i < 6; ++i) {
    auto batch = c.Poll().value();
    for (const auto& m : batch) served.insert(m.origin.partition);
  }
  EXPECT_EQ(served.size(), 3u);
}

TEST_F(ConsumerTest, UnassignStopsDelivery) {
  Consumer c(broker_);
  ASSERT_TRUE(c.Assign({"t", 0}, 0).ok());
  ASSERT_TRUE(c.Assign({"t", 1}, 0).ok());
  ASSERT_TRUE(c.Unassign({"t", 1}).ok());
  int total = 0;
  while (true) {
    auto b = c.Poll().value();
    if (b.empty()) break;
    for (const auto& m : b) {
      EXPECT_EQ(m.origin.partition, 0);
      ++total;
    }
  }
  EXPECT_EQ(total, 10);
  EXPECT_FALSE(c.Unassign({"t", 1}).ok());
}

TEST_F(ConsumerTest, AssignValidation) {
  Consumer c(broker_);
  EXPECT_FALSE(c.Assign({"nope", 0}, 0).ok());
  EXPECT_FALSE(c.Assign({"t", 99}, 0).ok());
  EXPECT_FALSE(c.Position({"t", 0}).ok());
  EXPECT_FALSE(c.Seek({"t", 0}, 0).ok());
}

TEST(BrokerLatencyTest, FetchLatencyConsumesTime) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("t", {.num_partitions = 1}).ok());
  ASSERT_TRUE(broker->Append({"t", 0}, Msg("k", "v")).ok());
  broker->SetFetchLatencyNanos(200000);  // 0.2 ms
  int64_t t0 = MonotonicNanos();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(broker->Fetch({"t", 0}, 0, 1).ok());
  int64_t elapsed = MonotonicNanos() - t0;
  EXPECT_GE(elapsed, 10 * 200000);
}

// Regression tests for StreamPartitionHasher. The original
// `hash(topic) * 31 + partition` mapped adjacent partitions of one topic to
// consecutive hash values: high bits never moved with the partition, and
// power-of-two bucket tables saw heavy low-bit collisions across topics.
TEST(StreamPartitionHasherTest, DeterministicPerKey) {
  StreamPartitionHasher hasher;
  EXPECT_EQ(hasher({"Orders", 3}), hasher({"Orders", 3}));
  EXPECT_NE(hasher({"Orders", 3}), hasher({"Orders", 4}));
  EXPECT_NE(hasher({"Orders", 3}), hasher({"Packets", 3}));
}

TEST(StreamPartitionHasherTest, AdjacentPartitionsAvalanche) {
  StreamPartitionHasher hasher;
  int64_t total_flipped = 0;
  int64_t high32_changed = 0;
  constexpr int kPairs = 256;
  for (int p = 0; p < kPairs; ++p) {
    uint64_t a = hasher({"Orders", p});
    uint64_t b = hasher({"Orders", p + 1});
    total_flipped += std::popcount(a ^ b);
    if ((a >> 32) != (b >> 32)) ++high32_changed;
  }
  // A +1 partition step must flip about half of the 64 output bits on
  // average (the old hasher flipped ~2) and must reach the high word.
  EXPECT_GE(total_flipped / kPairs, 24);
  EXPECT_GE(high32_changed, kPairs - 2);
}

TEST(StreamPartitionHasherTest, SpreadsOverPowerOfTwoBuckets) {
  StreamPartitionHasher hasher;
  constexpr size_t kBuckets = 64;
  constexpr int kTopics = 8;
  constexpr int kPartitions = 32;  // 256 keys, ideal load 4 per bucket
  std::array<int, kBuckets> load{};
  std::set<uint64_t> distinct;
  for (int t = 0; t < kTopics; ++t) {
    for (int p = 0; p < kPartitions; ++p) {
      uint64_t h = hasher({"topic-" + std::to_string(t), p});
      distinct.insert(h);
      ++load[h & (kBuckets - 1)];
    }
  }
  EXPECT_EQ(distinct.size(), size_t{kTopics * kPartitions});
  // No bucket may carry more than 4x the ideal load. The old hasher packed
  // each topic's partitions into runs, overloading shared low-bit residues.
  for (size_t b = 0; b < kBuckets; ++b) {
    EXPECT_LE(load[b], 16) << "bucket " << b << " overloaded";
  }
}

}  // namespace
}  // namespace sqs
