#include <gtest/gtest.h>

#include <random>

#include "kv/changelog.h"
#include "kv/store.h"
#include "serde/serde.h"

namespace sqs {
namespace {

Bytes B(const std::string& s) { return ToBytes(s); }

TEST(InMemoryStoreTest, BasicOps) {
  InMemoryStore store;
  EXPECT_FALSE(store.Get(B("k")).has_value());
  store.Put(B("k"), B("v"));
  ASSERT_TRUE(store.Get(B("k")).has_value());
  EXPECT_EQ(*store.Get(B("k")), B("v"));
  store.Put(B("k"), B("v2"));
  EXPECT_EQ(*store.Get(B("k")), B("v2"));
  EXPECT_EQ(store.Size(), 1u);
  store.Delete(B("k"));
  EXPECT_FALSE(store.Get(B("k")).has_value());
  EXPECT_EQ(store.Size(), 0u);
}

TEST(InMemoryStoreTest, RangeIsOrderedAndHalfOpen) {
  InMemoryStore store;
  for (char c = 'a'; c <= 'f'; ++c) store.Put(B(std::string(1, c)), B("v"));
  std::vector<std::string> seen;
  store.Range(B("b"), B("e"), [&](const Bytes& k, const Bytes&) {
    seen.push_back(FromBytes(k));
    return true;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "b");
  EXPECT_EQ(seen[2], "d");
}

TEST(InMemoryStoreTest, RangeEarlyStop) {
  InMemoryStore store;
  for (char c = 'a'; c <= 'f'; ++c) store.Put(B(std::string(1, c)), B("v"));
  int count = 0;
  store.All([&](const Bytes&, const Bytes&) { return ++count < 2; });
  EXPECT_EQ(count, 2);
}

// The stateful operators' access pattern: order-preserving encoded keys,
// serde-encoded rows, and a half-open range scan that yields key order.
TEST(InMemoryStoreTest, OrderedKeyRangeScanYieldsValueOrder) {
  auto schema = Schema::Make("T", {{"t", FieldType::Int64(), false}});
  AvroRowSerde serde(schema);
  InMemoryStore store;
  for (int64_t t : {50, 10, 30, 20, 40}) {
    store.Put(EncodeOrderedKey(Value(t)), serde.SerializeToBytes(Row{Value(t)}));
  }
  std::vector<int64_t> seen;
  store.Range(EncodeOrderedKey(Value(int64_t{15})), EncodeOrderedKey(Value(int64_t{45})),
              [&](const Bytes&, const Bytes& v) {
                auto row = serde.DeserializeBytes(v);
                EXPECT_TRUE(row.ok()) << row.status().ToString();
                seen.push_back(row.value()[0].as_int64());
                return true;
              });
  EXPECT_EQ(seen, (std::vector<int64_t>{20, 30, 40}));
}

class ChangelogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<Broker>();
    ASSERT_TRUE(
        broker_->CreateTopic("cl", {.num_partitions = 2, .compacted = true}).ok());
  }
  BrokerPtr broker_;
};

TEST_F(ChangelogTest, WritesMirroredToChangelog) {
  ChangelogBackedStore store(std::make_shared<InMemoryStore>(), broker_, {"cl", 0});
  store.Put(B("k1"), B("v1"));
  store.Put(B("k2"), B("v2"));
  store.Delete(B("k1"));
  EXPECT_EQ(broker_->EndOffset({"cl", 0}).value(), 3);
  // The other partition is untouched — partition isolation per task.
  EXPECT_EQ(broker_->EndOffset({"cl", 1}).value(), 0);
}

TEST_F(ChangelogTest, RestoreRebuildsExactState) {
  std::mt19937_64 rng(3);
  std::map<std::string, std::string> reference;
  {
    ChangelogBackedStore store(std::make_shared<InMemoryStore>(), broker_, {"cl", 0});
    for (int i = 0; i < 500; ++i) {
      std::string k = "k" + std::to_string(rng() % 50);
      if (rng() % 4 == 0) {
        store.Delete(B(k));
        reference.erase(k);
      } else {
        std::string v = "v" + std::to_string(rng());
        store.Put(B(k), B(v));
        reference[k] = v;
      }
    }
  }  // store destroyed: simulated container loss
  ChangelogBackedStore restored(std::make_shared<InMemoryStore>(), broker_, {"cl", 0});
  ASSERT_TRUE(restored.Restore().ok());
  EXPECT_EQ(restored.Size(), reference.size());
  for (const auto& [k, v] : reference) {
    auto got = restored.Get(B(k));
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(FromBytes(*got), v);
  }
}

TEST_F(ChangelogTest, RestoreAfterCompactionStillExact) {
  std::map<std::string, std::string> reference;
  {
    ChangelogBackedStore store(std::make_shared<InMemoryStore>(), broker_, {"cl", 0});
    for (int i = 0; i < 100; ++i) {
      std::string k = "k" + std::to_string(i % 10);
      std::string v = "v" + std::to_string(i);
      store.Put(B(k), B(v));
      reference[k] = v;
    }
  }
  ASSERT_TRUE(broker_->Compact("cl").ok());
  EXPECT_EQ(broker_->TopicSize("cl").value(), 10);
  ChangelogBackedStore restored(std::make_shared<InMemoryStore>(), broker_, {"cl", 0});
  ASSERT_TRUE(restored.Restore().ok());
  for (const auto& [k, v] : reference) {
    EXPECT_EQ(FromBytes(*restored.Get(B(k))), v);
  }
}

TEST_F(ChangelogTest, RestoreOnEmptyChangelogYieldsEmptyStore) {
  ChangelogBackedStore store(std::make_shared<InMemoryStore>(), broker_, {"cl", 1});
  ASSERT_TRUE(store.Restore().ok());
  EXPECT_EQ(store.Size(), 0u);
}

}  // namespace
}  // namespace sqs
