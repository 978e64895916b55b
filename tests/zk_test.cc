#include <gtest/gtest.h>

#include "zk/zookeeper.h"

namespace sqs {
namespace {

TEST(ZkTest, CreateGet) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.Create("/a", "va").ok());
  EXPECT_EQ(zk.Get("/a").value(), "va");
}

TEST(ZkTest, CreateRequiresParent) {
  ZooKeeperSim zk;
  EXPECT_EQ(zk.Create("/a/b", "x").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(zk.Create("/a", "").ok());
  EXPECT_TRUE(zk.Create("/a/b", "x").ok());
}

TEST(ZkTest, CreateRecursiveMakesParents) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.CreateRecursive("/samzasql/queries/q1/sql", "SELECT 1").ok());
  EXPECT_TRUE(zk.Exists("/samzasql"));
  EXPECT_TRUE(zk.Exists("/samzasql/queries/q1"));
  EXPECT_EQ(zk.Get("/samzasql/queries/q1/sql").value(), "SELECT 1");
}

TEST(ZkTest, DuplicateCreateFails) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.Create("/a", "1").ok());
  EXPECT_EQ(zk.Create("/a", "2").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(zk.Get("/a").value(), "1");
}

TEST(ZkTest, SetUpdatesExisting) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.Create("/a", "1").ok());
  ASSERT_TRUE(zk.Set("/a", "2").ok());
  EXPECT_EQ(zk.Get("/a").value(), "2");
  EXPECT_EQ(zk.Set("/missing", "x").code(), ErrorCode::kNotFound);
}

TEST(ZkTest, PutCreatesOrUpdates) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.Put("/p/q", "1").ok());
  EXPECT_EQ(zk.Get("/p/q").value(), "1");
  ASSERT_TRUE(zk.Put("/p/q", "2").ok());
  EXPECT_EQ(zk.Get("/p/q").value(), "2");
}

TEST(ZkTest, DeleteRefusesNonEmpty) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.CreateRecursive("/a/b", "x").ok());
  EXPECT_FALSE(zk.Delete("/a").ok());
  ASSERT_TRUE(zk.Delete("/a/b").ok());
  EXPECT_TRUE(zk.Delete("/a").ok());
  EXPECT_FALSE(zk.Exists("/a"));
}

TEST(ZkTest, ListReturnsImmediateChildrenSorted) {
  ZooKeeperSim zk;
  ASSERT_TRUE(zk.CreateRecursive("/jobs/b/task", "").ok());
  ASSERT_TRUE(zk.CreateRecursive("/jobs/a", "").ok());
  ASSERT_TRUE(zk.CreateRecursive("/jobs/c", "").ok());
  auto children = zk.List("/jobs");
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children.value().size(), 3u);
  EXPECT_EQ(children.value()[0], "a");
  EXPECT_EQ(children.value()[1], "b");
  EXPECT_EQ(children.value()[2], "c");
  // Grandchildren are not included.
  EXPECT_EQ(zk.List("/jobs/b").value(), std::vector<std::string>{"task"});
}

TEST(ZkTest, PathValidation) {
  ZooKeeperSim zk;
  EXPECT_FALSE(zk.Create("noslash", "").ok());
  EXPECT_FALSE(zk.Create("/trailing/", "").ok());
  EXPECT_FALSE(zk.Create("/a//b", "").ok());
  EXPECT_FALSE(zk.Create("", "").ok());
}

}  // namespace
}  // namespace sqs
