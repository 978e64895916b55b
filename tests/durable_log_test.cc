// Durable-log unit tests (docs/DURABILITY.md):
//  - ScanFrames: every torn-tail shape classifies and truncates correctly;
//  - SegmentLog: round trips, rolling, torn-tail repair, staged-rewrite and
//    stale-generation sweeps at recovery;
//  - record codecs: partition records, topic meta, producer meta;
//  - crash-point registry: arming, countdowns, unknown-name rejection;
//  - FaultInjectingFileFactory: buffered-unsynced semantics, power loss with
//    torn prefixes, short writes, failed fsyncs, ENOSPC;
//  - Broker durability: cold-restart round trips, recovery of producer dedup
//    state (the duplicate-trailing-record case), retention/compaction
//    rewrites, the checkpoint fsync barrier, EnableDurability edge cases.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "io/crashpoint.h"
#include "io/fault_file.h"
#include "io/file.h"
#include "log/broker.h"
#include "log/durable_log.h"
#include "log/record_log.h"
#include "log/segment.h"

namespace sqs {
namespace {

// Deterministic per-test scratch directory (ctest runs each case in its own
// process, so the name must be unique per case, not random: death-test
// children must land on the same path as their parent).
std::string TestDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = std::filesystem::temp_directory_path() /
                    ("sqs_dlog_" + std::string(info->test_suite_name()) + "_" +
                     std::string(info->name()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = ToBytes(key);
  m.value = ToBytes(value);
  m.timestamp = 42;
  return m;
}

Bytes Payload(const std::string& s) { return ToBytes(s); }

// ---------------------------------------------------------------------------
// ScanFrames: tail classification
// ---------------------------------------------------------------------------

TEST(ScanFramesTest, EmptyFileIsCleanEnd) {
  SegmentScan scan = ScanFrames(Bytes{});
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kCleanEnd);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.good_bytes, 0);
}

TEST(ScanFramesTest, ExactRecordBoundaryEndIsClean) {
  Bytes data;
  AppendFrame(&data, Payload("one").data(), 3);
  AppendFrame(&data, Payload("three").data(), 5);
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kCleanEnd);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], Payload("one"));
  EXPECT_EQ(scan.records[1], Payload("three"));
  EXPECT_EQ(scan.good_bytes, static_cast<int64_t>(data.size()));
}

TEST(ScanFramesTest, TornLengthPrefixTruncatesAtLastGoodFrame) {
  Bytes data;
  AppendFrame(&data, Payload("good").data(), 4);
  const int64_t good = static_cast<int64_t>(data.size());
  // Fewer than 8 header bytes after the good frame: a torn length prefix.
  data.push_back(0x05);
  data.push_back(0x00);
  data.push_back(0x00);
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kTornLength);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.good_bytes, good);
}

TEST(ScanFramesTest, TornPayloadTruncatesAtLastGoodFrame) {
  Bytes data;
  AppendFrame(&data, Payload("good").data(), 4);
  const int64_t good = static_cast<int64_t>(data.size());
  // Full header claiming 100 payload bytes, but only 10 present.
  Bytes torn;
  AppendFrame(&torn, Bytes(100, 0xAB).data(), 100);
  data.insert(data.end(), torn.begin(), torn.begin() + 18);
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kTornPayload);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.good_bytes, good);
}

TEST(ScanFramesTest, CorruptLengthOverrunningFileIsTornPayload) {
  Bytes data;
  AppendFrame(&data, Payload("good").data(), 4);
  const int64_t good = static_cast<int64_t>(data.size());
  Bytes frame;
  AppendFrame(&frame, Payload("next").data(), 4);
  frame[0] = 0xFF;  // length explodes: claims ~4GB, overruns the file
  frame[1] = 0xFF;
  frame[2] = 0xFF;
  data.insert(data.end(), frame.begin(), frame.end());
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kTornPayload);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.good_bytes, good);
}

TEST(ScanFramesTest, TornCrcBitRotIsBadCrc) {
  Bytes data;
  AppendFrame(&data, Payload("good").data(), 4);
  const int64_t good = static_cast<int64_t>(data.size());
  Bytes frame;
  AppendFrame(&frame, Payload("rotten").data(), 6);
  frame[4] ^= 0x01;  // flip one CRC bit: full frame present, checksum wrong
  data.insert(data.end(), frame.begin(), frame.end());
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kBadCrc);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.good_bytes, good);
}

TEST(ScanFramesTest, PayloadBitRotIsBadCrc) {
  Bytes data;
  AppendFrame(&data, Payload("payload").data(), 7);
  data[data.size() - 1] ^= 0x10;  // flip a payload bit instead
  SegmentScan scan = ScanFrames(data);
  EXPECT_EQ(scan.tail, SegmentScan::Tail::kBadCrc);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.good_bytes, 0);
}

// ---------------------------------------------------------------------------
// SegmentLog: round trips, rolling, repair at recovery
// ---------------------------------------------------------------------------

SegmentLogOptions SmallSegments(int64_t segment_bytes = 128,
                                FsyncPolicy fsync = FsyncPolicy::kNever) {
  SegmentLogOptions o;
  o.segment_bytes = segment_bytes;
  o.fsync = fsync;
  o.scope = "test";
  return o;
}

TEST(SegmentLogTest, RoundTripAcrossRolledSegments) {
  std::string dir = TestDir() + "/p0";
  std::vector<Bytes> written;
  {
    SegmentLog log(dir, SmallSegments(64));
    std::vector<Bytes> none;
    ASSERT_TRUE(log.Open(&none, nullptr).ok());
    EXPECT_TRUE(none.empty());
    for (int i = 0; i < 20; ++i) {
      Bytes p = Payload("record-" + std::to_string(i) + std::string(16, 'x'));
      ASSERT_TRUE(log.Append(p, i).ok());
      written.push_back(std::move(p));
    }
    ASSERT_TRUE(log.Close().ok());
  }
  // Tiny segment budget: the log must have rolled into several files.
  auto files = io::PosixFileFactory::Instance()->ListDir(dir);
  ASSERT_TRUE(files.ok());
  EXPECT_GT(files.value().size(), 1u);

  SegmentLog log(dir, SmallSegments(64));
  std::vector<Bytes> replayed;
  SegmentRecovery recovery;
  ASSERT_TRUE(log.Open(&replayed, &recovery).ok());
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(recovery.records, 20);
  EXPECT_EQ(recovery.truncated_bytes, 0);
  EXPECT_EQ(recovery.dropped_segments, 0);
  EXPECT_EQ(recovery.first_base_offset, 0);
  ASSERT_TRUE(log.Close().ok());
}

TEST(SegmentLogTest, EmptySegmentFileRecoversCleanly) {
  std::string dir = TestDir() + "/p0";
  {
    SegmentLog log(dir, SmallSegments());
    std::vector<Bytes> none;
    ASSERT_TRUE(log.Open(&none, nullptr).ok());
    // Open an (empty) segment by appending then... no: just close. The
    // first Append creates the file, so write one record and truncate the
    // file to zero by hand below.
    ASSERT_TRUE(log.Append(Payload("x"), 7).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  auto files = io::PosixFileFactory::Instance()->ListDir(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  // Zero-length segment: everything after the header write was lost.
  std::ofstream(dir + "/" + files.value()[0],
                std::ios::binary | std::ios::trunc);

  SegmentLog log(dir, SmallSegments());
  std::vector<Bytes> replayed;
  SegmentRecovery recovery;
  ASSERT_TRUE(log.Open(&replayed, &recovery).ok());
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(recovery.truncated_bytes, 0);
  // The base offset still recovers from the file name: the log-start
  // position survives even with zero surviving records.
  EXPECT_EQ(recovery.first_base_offset, 7);
  // The repaired log accepts appends again.
  ASSERT_TRUE(log.Append(Payload("y"), 8).ok());
  ASSERT_TRUE(log.Close().ok());
}

TEST(SegmentLogTest, TornTailIsPhysicallyTruncatedAndLaterSegmentsDropped) {
  std::string dir = TestDir() + "/p0";
  {
    SegmentLog log(dir, SmallSegments(64));
    std::vector<Bytes> none;
    ASSERT_TRUE(log.Open(&none, nullptr).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          log.Append(Payload("record-" + std::to_string(i) + std::string(16, 'x')), i)
              .ok());
    }
    ASSERT_TRUE(log.Close().ok());
  }
  auto files = io::PosixFileFactory::Instance()->ListDir(dir);
  ASSERT_TRUE(files.ok());
  std::vector<std::string> names = files.value();
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 3u);
  // Tear the middle segment: append half a header to it.
  {
    std::ofstream f(dir + "/" + names[1], std::ios::binary | std::ios::app);
    f.write("\x09\x00\x00", 3);
  }

  SegmentLog log(dir, SmallSegments(64));
  std::vector<Bytes> replayed;
  SegmentRecovery recovery;
  ASSERT_TRUE(log.Open(&replayed, &recovery).ok());
  // Everything before the tear survives; the torn bytes are gone from disk
  // and every segment after the torn one is dropped — recovery yields a
  // prefix, never a gap.
  EXPECT_GT(recovery.truncated_bytes, 0);
  EXPECT_GE(recovery.dropped_segments, 1);
  ASSERT_FALSE(replayed.empty());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i],
              Payload("record-" + std::to_string(i) + std::string(16, 'x')));
  }
  auto after = io::PosixFileFactory::Instance()->ListDir(dir);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().size(), names.size());
  ASSERT_TRUE(log.Close().ok());
}

TEST(SegmentLogTest, RewriteReplacesGenerationAndSweepsStagedTmp) {
  std::string dir = TestDir() + "/p0";
  SegmentLog log(dir, SmallSegments(1 << 20));
  std::vector<Bytes> none;
  ASSERT_TRUE(log.Open(&none, nullptr).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(log.Append(Payload("v" + std::to_string(i)), i).ok());
  }
  // Retention dropped the first four records.
  ASSERT_TRUE(log.Rewrite({Payload("v4"), Payload("v5")}, 4).ok());
  ASSERT_TRUE(log.Append(Payload("v6"), 6).ok());
  ASSERT_TRUE(log.Close().ok());

  // A crashed later rewrite leaves a staged .tmp behind; recovery sweeps it.
  {
    std::ofstream f(dir + "/0000000002-00000000000000000005.seg.tmp",
                    std::ios::binary);
    f.write("garbage", 7);
  }

  SegmentLog reopened(dir, SmallSegments(1 << 20));
  std::vector<Bytes> replayed;
  SegmentRecovery recovery;
  ASSERT_TRUE(reopened.Open(&replayed, &recovery).ok());
  EXPECT_EQ(replayed,
            (std::vector<Bytes>{Payload("v4"), Payload("v5"), Payload("v6")}));
  EXPECT_EQ(recovery.first_base_offset, 4);
  EXPECT_EQ(recovery.removed_tmp_files, 1);
  ASSERT_TRUE(reopened.Close().ok());
}

TEST(SegmentLogTest, FsyncPolicyParsesAndRejectsUnknown) {
  EXPECT_EQ(ParseFsyncPolicy("always").value(), FsyncPolicy::kAlways);
  EXPECT_EQ(ParseFsyncPolicy("interval").value(), FsyncPolicy::kInterval);
  EXPECT_EQ(ParseFsyncPolicy("never").value(), FsyncPolicy::kNever);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
}

// ---------------------------------------------------------------------------
// Record codecs
// ---------------------------------------------------------------------------

TEST(DurableCodecTest, LogRecordRoundTripsEveryField) {
  Message m = Msg("the-key", "the-value");
  m.timestamp = 123456789;
  m.ingest_us = 1111;
  m.append_us = 2222;
  m.producer_id = 77;
  m.producer_epoch = 3;
  m.sequence = 41;
  StampMessageCrc(m);

  Bytes payload = EncodeLogRecord(9001, m);
  auto decoded = DecodeLogRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& [offset, out] = decoded.value();
  EXPECT_EQ(offset, 9001);
  EXPECT_EQ(out.key, m.key);
  EXPECT_EQ(out.value, m.value);
  EXPECT_EQ(out.timestamp, m.timestamp);
  EXPECT_EQ(out.ingest_us, m.ingest_us);
  EXPECT_EQ(out.append_us, m.append_us);
  EXPECT_EQ(out.producer_id, m.producer_id);
  EXPECT_EQ(out.producer_epoch, m.producer_epoch);
  EXPECT_EQ(out.sequence, m.sequence);
  EXPECT_EQ(out.crc, m.crc);
  EXPECT_EQ(out.has_crc, m.has_crc);
  EXPECT_TRUE(MessageCrcValid(out));
}

TEST(DurableCodecTest, TopicAndProducerMetaRoundTrip) {
  TopicMetaRecord t;
  t.name = "weird topic/with:chars";
  t.num_partitions = 7;
  t.retention_messages = 500;
  t.compacted = true;
  t.fsync_barrier = true;
  auto t2 = DecodeTopicMeta(EncodeTopicMeta(t));
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value().name, t.name);
  EXPECT_EQ(t2.value().num_partitions, 7);
  EXPECT_EQ(t2.value().retention_messages, 500);
  EXPECT_TRUE(t2.value().compacted);
  EXPECT_TRUE(t2.value().fsync_barrier);
  EXPECT_FALSE(t2.value().deleted);

  ProducerMetaRecord p;
  p.name = "task-3";
  p.pid = 12;
  p.epoch = 4;
  auto p2 = DecodeProducerMeta(EncodeProducerMeta(p));
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value().name, "task-3");
  EXPECT_EQ(p2.value().pid, 12u);
  EXPECT_EQ(p2.value().epoch, 4);
}

TEST(DurableCodecTest, TopicDirNameEscapesUnsafeCharacters) {
  EXPECT_EQ(TopicDirName("plain-topic_1.x"), "t_plain-topic_1.x");
  std::string escaped = TopicDirName("a/b c");
  EXPECT_EQ(escaped.find('/'), std::string::npos);
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_NE(TopicDirName("a/b"), TopicDirName("a_b"));
}

TEST(DurableCodecTest, TopicDirNameNeverAliasesReservedNames) {
  // "." and ".." would escape log.dir (DeleteTopic runs RemoveAllUnder on
  // the topic dir); "__meta" would collide with the meta-log directory.
  EXPECT_EQ(TopicDirName("."), "t_.");
  EXPECT_EQ(TopicDirName(".."), "t_..");
  EXPECT_EQ(TopicDirName("__meta"), "t___meta");
  for (const std::string name : {".", "..", "__meta", "%2E%2E", "t_x"}) {
    std::string dir = TopicDirName(name);
    EXPECT_NE(dir, ".");
    EXPECT_NE(dir, "..");
    EXPECT_NE(dir, "__meta");
    EXPECT_EQ(dir.find('/'), std::string::npos) << name;
  }
  // Distinct names stay distinct even with the prefix.
  EXPECT_NE(TopicDirName("t_x"), TopicDirName("x"));
}

TEST(DurableCodecTest, OptionsFromConfigValidates) {
  Config off;
  auto o = DurableLogOptions::FromConfig(off);
  ASSERT_TRUE(o.ok());
  EXPECT_FALSE(o.value().enabled);

  Config no_dir;
  no_dir.Set(cfg::kLogDurable, "true");
  EXPECT_FALSE(DurableLogOptions::FromConfig(no_dir).ok());

  Config full;
  full.Set(cfg::kLogDurable, "true");
  full.Set(cfg::kLogDir, "/tmp/x");
  full.SetInt(cfg::kLogSegmentBytes, 4096);
  full.Set(cfg::kLogFsync, "interval");
  full.SetInt(cfg::kLogFsyncIntervalMs, 9);
  auto f = DurableLogOptions::FromConfig(full);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.value().enabled);
  EXPECT_EQ(f.value().dir, "/tmp/x");
  EXPECT_EQ(f.value().segment_bytes, 4096);
  EXPECT_EQ(f.value().fsync, FsyncPolicy::kInterval);
  EXPECT_EQ(f.value().fsync_interval_ms, 9);
}

// ---------------------------------------------------------------------------
// Crash-point registry
// ---------------------------------------------------------------------------

TEST(CrashPointTest, UnknownNameIsRejected) {
  EXPECT_FALSE(io::ArmCrashPoint("segment.append.no_such_point").ok());
  EXPECT_FALSE(io::ArmCrashPoint("segment.fsync.before:0").ok());
  EXPECT_FALSE(io::ArmCrashPoint("segment.fsync.before:x").ok());
  io::DisarmCrashPoints();
}

TEST(CrashPointTest, CountdownConsumesHitsAndDisarmClears) {
  ASSERT_TRUE(io::ArmCrashPoint("segment.fsync.before:3").ok());
  EXPECT_FALSE(io::CrashPointFires("segment.fsync.before"));
  EXPECT_FALSE(io::CrashPointFires("segment.fsync.after"));  // different point
  EXPECT_FALSE(io::CrashPointFires("segment.fsync.before"));
  EXPECT_TRUE(io::CrashPointFires("segment.fsync.before"));  // third hit fires
  io::DisarmCrashPoints();
  EXPECT_FALSE(io::CrashPointFires("segment.fsync.before"));
}

TEST(CrashPointTest, RegistryListsTheWholeMatrix) {
  const auto& points = io::RegisteredCrashPoints();
  EXPECT_GE(points.size(), 11u);
  for (const std::string& p : points) {
    ASSERT_TRUE(io::ArmCrashPoint(p).ok()) << p;
    io::DisarmCrashPoints();
  }
}

// ---------------------------------------------------------------------------
// FaultInjectingFileFactory
// ---------------------------------------------------------------------------

TEST(FaultFileTest, AppendsAreBufferedUntilSync) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("hello", 5).ok());
  EXPECT_EQ(fault->total_unsynced_bytes(), 5);
  // The inner file has nothing yet: the bytes live in the unsynced buffer.
  EXPECT_EQ(fault->ReadFile(dir + "/f").value().size(), 0u);
  ASSERT_TRUE(file.value()->Sync().ok());
  EXPECT_EQ(fault->total_unsynced_bytes(), 0);
  EXPECT_EQ(fault->ReadFile(dir + "/f").value(), Payload("hello"));
  ASSERT_TRUE(file.value()->Close().ok());
}

TEST(FaultFileTest, CrashDropsUnsyncedAndRefusesWritesUntilRevive) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("synced", 6).ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Append("lost", 4).ok());

  fault->CrashAndDropUnsynced(/*torn_rate=*/0.0);
  EXPECT_FALSE(file.value()->Append("dead", 4).ok());
  EXPECT_FALSE(fault->OpenAppend(dir + "/g").ok());
  // Reads still work: the recovery scan runs against the surviving image.
  EXPECT_EQ(fault->ReadFile(dir + "/f").value(), Payload("synced"));

  fault->Revive();
  auto again = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value()->Append("!", 1).ok());
  ASSERT_TRUE(again.value()->Sync().ok());
  EXPECT_EQ(fault->ReadFile(dir + "/f").value(), Payload("synced!"));
}

TEST(FaultFileTest, TornCrashPersistsAStrictPrefixOfTheUnsyncedTail) {
  std::string dir = TestDir();
  io::FileFaultPolicy policy;
  policy.seed = 1234;
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(policy);
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("synced", 6).ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  Bytes tail(64, 0x5A);
  ASSERT_TRUE(file.value()->Append(tail.data(), tail.size()).ok());

  fault->CrashAndDropUnsynced(/*torn_rate=*/1.0);
  EXPECT_EQ(fault->torn_files(), 1);
  Bytes survived = fault->ReadFile(dir + "/f").value();
  // Strictly between: the synced prefix plus [1, 64) torn bytes.
  EXPECT_GT(survived.size(), 6u);
  EXPECT_LT(survived.size(), 6u + 64u);
  EXPECT_EQ(Bytes(survived.begin(), survived.begin() + 6), Payload("synced"));
}

TEST(FaultFileTest, ShortWritePersistsPrefixAndFailsUnavailable) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  fault->FailNextAppends(1);
  Bytes data(32, 0x42);
  Status st = file.value()->Append(data.data(), data.size());
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(fault->injected_short_writes(), 1);
  // A prefix (possibly empty) stuck: logical size < requested.
  EXPECT_LT(file.value()->size(), 32);
  ASSERT_TRUE(file.value()->Append("ok", 2).ok());
  ASSERT_TRUE(file.value()->Sync().ok());
}

TEST(FaultFileTest, ForcedFsyncFailureLeavesBytesUnsynced) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("abc", 3).ok());
  fault->FailNextFsyncs(1);
  EXPECT_EQ(file.value()->Sync().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(fault->injected_fsync_failures(), 1);
  EXPECT_EQ(fault->total_unsynced_bytes(), 3);
  ASSERT_TRUE(file.value()->Sync().ok());  // retry succeeds
  EXPECT_EQ(fault->total_unsynced_bytes(), 0);
}

TEST(FaultFileTest, EnospcBudgetFailsAppendsAfterTheLimit) {
  std::string dir = TestDir();
  io::FileFaultPolicy policy;
  policy.enospc_after_bytes = 10;
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(policy);
  auto file = fault->OpenAppend(dir + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("0123456789", 10).ok());
  Status st = file.value()->Append("x", 1);
  EXPECT_FALSE(st.ok());
  EXPECT_GE(fault->injected_enospc_failures(), 1);
}

// ---------------------------------------------------------------------------
// Broker durability: cold restarts at the broker API level
// ---------------------------------------------------------------------------

DurableLogOptions DurableAt(const std::string& dir,
                            FsyncPolicy fsync = FsyncPolicy::kAlways,
                            io::FileFactoryPtr factory = nullptr) {
  DurableLogOptions o;
  o.enabled = true;
  o.dir = dir;
  o.segment_bytes = 256;  // force rolling under test workloads
  o.fsync = fsync;
  o.factory = std::move(factory);
  return o;
}

TEST(DurableBrokerTest, ColdRestartRecoversTopicsOffsetsAndPayloads) {
  std::string dir = TestDir();
  {
    Broker broker;
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    EXPECT_TRUE(broker.durable());
    ASSERT_TRUE(broker.CreateTopic("orders", {.num_partitions = 2}).ok());
    ASSERT_TRUE(
        broker.CreateTopic("audit", {.num_partitions = 1, .compacted = true}).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(broker
                      .Append({"orders", i % 2},
                              Msg("k" + std::to_string(i), "v" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(broker.DeleteTopic("audit").ok());
  }

  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  EXPECT_TRUE(restarted.HasTopic("orders"));
  EXPECT_FALSE(restarted.HasTopic("audit"));  // delete survived the restart
  EXPECT_EQ(restarted.NumPartitions("orders").value(), 2);
  EXPECT_EQ(restarted.EndOffset({"orders", 0}).value(), 5);
  EXPECT_EQ(restarted.EndOffset({"orders", 1}).value(), 5);
  auto fetched = restarted.Fetch({"orders", 0}, 0, 100);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 5u);
  for (size_t i = 0; i < fetched.value().size(); ++i) {
    const auto& im = fetched.value()[i];
    EXPECT_EQ(im.offset, static_cast<int64_t>(i));
    EXPECT_EQ(FromBytes(im.message.key), "k" + std::to_string(2 * i));
    EXPECT_EQ(FromBytes(im.message.value), "v" + std::to_string(2 * i));
  }
  // The recovered log keeps accepting appends at the right offset.
  EXPECT_EQ(restarted.Append({"orders", 0}, Msg("k", "v")).value(), 5);
}

// The heap image a cold restart rebuilds from the segments is field-equal to
// the one the broker held before it, except the trace context, which the
// on-disk record leaves out.
TEST(DurableBrokerTest, HeapImageIsFieldEqualAcrossColdRestart) {
  std::string dir = TestDir();
  std::vector<IncomingMessage> before;
  PartitionBacklog backlog_before;
  {
    Broker broker;
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    ASSERT_TRUE(
        broker.CreateTopic("t", {.num_partitions = 1, .retention_messages = 6}).ok());
    auto identity = broker.RegisterProducer("image");
    ASSERT_TRUE(identity.ok());
    int64_t next_sequence = 0;
    for (int i = 0; i < 8; ++i) {
      Message m = Msg(i == 3 ? "" : "k" + std::to_string(i),
                      i == 4 ? "" : "v" + std::to_string(i));
      m.timestamp = 1'700'000'000'000 + i;
      m.ingest_us = i % 2 == 0 ? 0 : 1'700'000'000'000'000 + i;
      m.append_us = 1'700'000'000'500'000 + i;
      if (i == 5) m.value.assign(RecordLog::kChunkBytes + 1, 'z');
      if (i % 3 != 0) {
        m.producer_id = identity.value().pid;
        m.producer_epoch = identity.value().epoch;
        m.sequence = next_sequence++;
      }
      if (i != 6) StampMessageCrc(m);
      m.trace = {.trace_id = 100u + static_cast<uint64_t>(i), .span_id = 7,
                 .sampled = i % 2 == 1};
      ASSERT_TRUE(broker.Append({"t", 0}, std::move(m)).ok());
    }
    ASSERT_TRUE(broker.EnforceRetention("t").ok());
    ASSERT_EQ(broker.BeginOffset({"t", 0}).value(), 2);
    auto fetched = broker.Fetch({"t", 0}, 2, 100);
    ASSERT_TRUE(fetched.ok());
    before = fetched.value();
    ASSERT_EQ(before.size(), 6u);
    EXPECT_EQ(before[0].message.trace.trace_id, 102u);  // held in the heap
    backlog_before = broker.BacklogFrom({"t", 0}, 0).value();
  }

  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  EXPECT_EQ(restarted.BeginOffset({"t", 0}).value(), 2);
  EXPECT_EQ(restarted.EndOffset({"t", 0}).value(), 8);
  auto after = restarted.Fetch({"t", 0}, 2, 100);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE(i);
    const Message& want = before[i].message;
    const Message& got = after.value()[i].message;
    EXPECT_EQ(after.value()[i].offset, before[i].offset);
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
    // Not on disk: the trace context comes back empty.
    EXPECT_EQ(got.trace.trace_id, 0u);
    EXPECT_EQ(got.trace.span_id, 0u);
    EXPECT_FALSE(got.trace.sampled);
  }
  PartitionBacklog backlog_after = restarted.BacklogFrom({"t", 0}, 0).value();
  EXPECT_EQ(backlog_after.messages, backlog_before.messages);
  EXPECT_EQ(backlog_after.bytes, backlog_before.bytes);
  EXPECT_EQ(backlog_after.oldest_append_ms, backlog_before.oldest_append_ms);
}

TEST(DurableBrokerTest, EnableDurabilityIsIdempotentAndRejectsSecondDir) {
  std::string dir = TestDir();
  Broker broker;
  ASSERT_TRUE(broker.EnableDurability(DurableAt(dir + "/a")).ok());
  EXPECT_TRUE(broker.EnableDurability(DurableAt(dir + "/a")).ok());  // same dir
  EXPECT_FALSE(broker.EnableDurability(DurableAt(dir + "/b")).ok());
  // enabled=false is always a no-op.
  EXPECT_TRUE(broker.EnableDurability(DurableLogOptions{}).ok());
  // Durable without a directory is a config error surfaced by FromConfig,
  // and EnableDurability itself also refuses it.
  DurableLogOptions no_dir;
  no_dir.enabled = true;
  EXPECT_FALSE(broker.EnableDurability(no_dir).ok());
}

TEST(DurableBrokerTest, HeapStateBootstrapsToDiskWhenDurabilityTurnsOn) {
  std::string dir = TestDir();
  {
    Broker broker;
    ASSERT_TRUE(broker.CreateTopic("pre", {.num_partitions = 1}).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(broker.Append({"pre", 0}, Msg("k", "v" + std::to_string(i))).ok());
    }
    // Durability turned on mid-life: existing heap contents must reach disk.
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    ASSERT_TRUE(broker.Append({"pre", 0}, Msg("k", "v4")).ok());
  }
  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  auto fetched = restarted.Fetch({"pre", 0}, 0, 100);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(FromBytes(fetched.value()[i].message.value), "v" + std::to_string(i));
  }
}

TEST(DurableBrokerTest, RetentionAndCompactionRewritesSurviveRestart) {
  std::string dir = TestDir();
  {
    Broker broker;
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    ASSERT_TRUE(broker
                    .CreateTopic("r", {.num_partitions = 1, .retention_messages = 3})
                    .ok());
    ASSERT_TRUE(broker.CreateTopic("c", {.num_partitions = 1, .compacted = true}).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(broker.Append({"r", 0}, Msg("k", "v" + std::to_string(i))).ok());
      ASSERT_TRUE(broker
                      .Append({"c", 0}, Msg("key" + std::to_string(i % 2),
                                            "val" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(broker.EnforceRetention("r").ok());
    ASSERT_TRUE(broker.Compact("c").ok());
  }

  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  // Retention: offsets 7..9 survive, and the log-start offset itself was
  // carried through the rewrite (segment base name).
  EXPECT_EQ(restarted.BeginOffset({"r", 0}).value(), 7);
  EXPECT_EQ(restarted.EndOffset({"r", 0}).value(), 10);
  auto r = restarted.Fetch({"r", 0}, 7, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(FromBytes(r.value()[0].message.value), "v7");
  // Compaction: newest value per key only.
  auto c = restarted.Fetch({"c", 0}, restarted.BeginOffset({"c", 0}).value(), 10);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 2u);
  EXPECT_EQ(FromBytes(c.value()[0].message.value), "val8");
  EXPECT_EQ(FromBytes(c.value()[1].message.value), "val9");
}

// The duplicate-trailing-record case: a producer's append lands durably, the
// process dies before the ack, and the restarted producer retries the same
// sequence. The rebuilt dedup state must ack it at the original offset
// instead of appending a duplicate.
TEST(DurableBrokerTest, ProducerDedupStateSurvivesColdRestart) {
  std::string dir = TestDir();
  uint64_t pid = 0;
  {
    Broker broker;
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    ASSERT_TRUE(broker.CreateTopic("t", {.num_partitions = 1}).ok());
    auto identity = broker.RegisterProducer("task-0");
    ASSERT_TRUE(identity.ok());
    pid = identity.value().pid;
    for (int i = 0; i < 3; ++i) {
      Message m = Msg("k", "v" + std::to_string(i));
      m.producer_id = pid;
      m.producer_epoch = identity.value().epoch;
      m.sequence = i;
      ASSERT_TRUE(broker.Append({"t", 0}, std::move(m)).ok());
    }
  }

  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  // Same name: same pid, bumped epoch — identity survived via the meta log.
  auto identity = restarted.RegisterProducer("task-0");
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity.value().pid, pid);
  EXPECT_GE(identity.value().epoch, 1);

  // Retry of the last pre-crash sequence: deduped, acked at offset 2.
  Message dup = Msg("k", "v2");
  dup.producer_id = pid;
  dup.producer_epoch = identity.value().epoch;
  dup.sequence = 2;
  auto acked = restarted.Append({"t", 0}, std::move(dup));
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(acked.value(), 2);
  EXPECT_EQ(restarted.EndOffset({"t", 0}).value(), 3);
  EXPECT_GE(restarted.dups_dropped(), 1);

  // The next fresh sequence appends normally.
  Message next = Msg("k", "v3");
  next.producer_id = pid;
  next.producer_epoch = identity.value().epoch;
  next.sequence = 3;
  EXPECT_EQ(restarted.Append({"t", 0}, std::move(next)).value(), 3);
}

// A checkpoint-topic append is a commit barrier: everything dirty in the
// broker's durable log must hit stable storage before (and with) it. With
// log.fsync=never nothing syncs on its own, so observing the fault
// factory's unsynced-byte gauge around the barrier proves the ordering.
TEST(DurableBrokerTest, FsyncBarrierTopicFlushesAllDirtyPartitions) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  Broker broker;
  ASSERT_TRUE(
      broker.EnableDurability(DurableAt(dir, FsyncPolicy::kNever, fault)).ok());
  ASSERT_TRUE(broker.CreateTopic("data", {.num_partitions = 2}).ok());
  ASSERT_TRUE(
      broker.CreateTopic("__cp", {.num_partitions = 1, .fsync_barrier = true}).ok());

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(broker.Append({"data", i % 2}, Msg("k", "v" + std::to_string(i))).ok());
  }
  EXPECT_GT(fault->total_unsynced_bytes(), 0);

  ASSERT_TRUE(broker.Append({"__cp", 0}, Msg("task", "offsets")).ok());
  // The barrier forced the data partitions AND its own record down.
  EXPECT_EQ(fault->total_unsynced_bytes(), 0);

  // SyncDurableLog alone gives the same guarantee (shutdown path).
  ASSERT_TRUE(broker.Append({"data", 0}, Msg("k", "tail")).ok());
  EXPECT_GT(fault->total_unsynced_bytes(), 0);
  ASSERT_TRUE(broker.SyncDurableLog().ok());
  EXPECT_EQ(fault->total_unsynced_bytes(), 0);
}

TEST(SegmentLogTest, FailedFsyncRollsTheFrameBackOff) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  SegmentLogOptions o;
  o.factory = fault;
  o.fsync = FsyncPolicy::kAlways;
  {
    SegmentLog log(dir, o);
    std::vector<Bytes> payloads;
    ASSERT_TRUE(log.Open(&payloads, nullptr).ok());
    ASSERT_TRUE(log.Append(Payload("a"), 0).ok());
    // The frame write lands, the fsync fails: the append must fail AND cut
    // the frame back off, so the caller's retry is the only surviving copy.
    fault->FailNextFsyncs(1);
    EXPECT_FALSE(log.Append(Payload("b"), 1).ok());
    ASSERT_TRUE(log.Append(Payload("b"), 1).ok());
    // Same contract on the force_sync (checkpoint barrier) path.
    fault->FailNextFsyncs(1);
    EXPECT_FALSE(log.Append(Payload("c"), 2, /*force_sync=*/true).ok());
    ASSERT_TRUE(log.Append(Payload("c"), 2, /*force_sync=*/true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  SegmentLog reopened(dir, o);
  std::vector<Bytes> payloads;
  ASSERT_TRUE(reopened.Open(&payloads, nullptr).ok());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(FromBytes(payloads[0]), "a");
  EXPECT_EQ(FromBytes(payloads[1]), "b");
  EXPECT_EQ(FromBytes(payloads[2]), "c");
  ASSERT_TRUE(reopened.Close().ok());
}

// ---------------------------------------------------------------------------
// DurablePartitionLog: duplicate-offset tolerance at recovery
// ---------------------------------------------------------------------------

// A recovery sink that copies every record out as a Message.
DurablePartitionLog::RecordSink CollectInto(
    std::vector<std::pair<int64_t, Message>>* records) {
  return [records](int64_t offset, const RecordView& record) {
    Message m = record.meta;
    m.key.assign(record.key.begin(), record.key.end());
    m.value.assign(record.value.begin(), record.value.end());
    records->emplace_back(offset, std::move(m));
  };
}

TEST(DurablePartitionLogTest, DuplicateTrailingOffsetCollapsesKeepLast) {
  std::string dir = TestDir();
  SegmentLogOptions o;
  {
    // Hand-build the poisoned image: the first offset-1 frame survived a
    // failed fsync whose rollback truncation also failed, and the producer's
    // retry appended the offset again.
    SegmentLog raw(dir, o);
    std::vector<Bytes> payloads;
    ASSERT_TRUE(raw.Open(&payloads, nullptr).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(0, Msg("k", "v0")), 0).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(1, Msg("k", "stale")), 1).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(1, Msg("k", "v1")), 1).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(2, Msg("k", "v2")), 2).ok());
    ASSERT_TRUE(raw.Close().ok());
  }
  DurablePartitionLog log(dir, o);
  std::vector<std::pair<int64_t, Message>> records;
  int64_t base = -1;
  SegmentRecovery recovery;
  ASSERT_TRUE(log.Open(CollectInto(&records), &base, &recovery).ok());
  EXPECT_EQ(recovery.duplicate_records, 1);
  ASSERT_EQ(records.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(records[static_cast<size_t>(i)].first, i);
  EXPECT_EQ(FromBytes(records[1].second.value), "v1");  // keep-last
  ASSERT_TRUE(log.Close().ok());
}

TEST(DurablePartitionLogTest, OffsetGapStillFailsRecovery) {
  std::string dir = TestDir();
  SegmentLogOptions o;
  {
    SegmentLog raw(dir, o);
    std::vector<Bytes> payloads;
    ASSERT_TRUE(raw.Open(&payloads, nullptr).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(0, Msg("k", "v0")), 0).ok());
    ASSERT_TRUE(raw.Append(EncodeLogRecord(2, Msg("k", "v2")), 2).ok());
    ASSERT_TRUE(raw.Close().ok());
  }
  DurablePartitionLog log(dir, o);
  std::vector<std::pair<int64_t, Message>> records;
  int64_t base = -1;
  EXPECT_FALSE(log.Open(CollectInto(&records), &base, nullptr).ok());
}

// A failed fsync on the broker's exactly-once-adjacent append path: the
// producer retries, the retry must land at the same offset exactly once, and
// the cold restart must not see an offset discontinuity (the pre-fix failure
// mode permanently poisoned the partition).
TEST(DurableBrokerTest, FailedFsyncThenRetryDoesNotPoisonRecovery) {
  std::string dir = TestDir();
  auto fault = std::make_shared<io::FaultInjectingFileFactory>(io::FileFaultPolicy{});
  {
    Broker broker;
    ASSERT_TRUE(
        broker.EnableDurability(DurableAt(dir, FsyncPolicy::kAlways, fault)).ok());
    ASSERT_TRUE(broker.CreateTopic("t", {.num_partitions = 1}).ok());
    ASSERT_EQ(broker.Append({"t", 0}, Msg("k", "v0")).value(), 0);
    fault->FailNextFsyncs(1);
    EXPECT_FALSE(broker.Append({"t", 0}, Msg("k", "v1")).ok());
    EXPECT_EQ(broker.EndOffset({"t", 0}).value(), 1);  // heap never advanced
    ASSERT_EQ(broker.Append({"t", 0}, Msg("k", "v1")).value(), 1);
    ASSERT_EQ(broker.Append({"t", 0}, Msg("k", "v2")).value(), 2);
  }
  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  EXPECT_EQ(restarted.BeginOffset({"t", 0}).value(), 0);
  EXPECT_EQ(restarted.EndOffset({"t", 0}).value(), 3);
  auto fetched = restarted.Fetch({"t", 0}, 0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(FromBytes(fetched.value()[i].message.value), "v" + std::to_string(i));
  }
}

// Reserved / path-hostile topic names must stay ordinary topics: "." and
// ".." previously mapped to path components (DeleteTopic("..") removed
// log.dir's parent wholesale) and "__meta" clobbered the meta-log segments.
TEST(DurableBrokerTest, ReservedTopicNamesCannotEscapeOrClobberMeta) {
  std::string root = TestDir();
  const std::string dir = root + "/data";
  { std::ofstream(root + "/sentinel") << "keep"; }
  {
    Broker broker;
    ASSERT_TRUE(broker.EnableDurability(DurableAt(dir)).ok());
    ASSERT_TRUE(broker.CreateTopic("normal", {.num_partitions = 1}).ok());
    ASSERT_TRUE(broker.Append({"normal", 0}, Msg("k", "v")).ok());
    for (const std::string name : {"..", ".", "__meta"}) {
      ASSERT_TRUE(broker.CreateTopic(name, {.num_partitions = 1}).ok()) << name;
      ASSERT_TRUE(broker.Append({name, 0}, Msg("k", "payload-" + name)).ok())
          << name;
    }
    ASSERT_TRUE(broker.DeleteTopic("..").ok());
  }
  // Nothing outside log.dir was touched, and the real meta dir is intact.
  EXPECT_TRUE(std::filesystem::exists(root + "/sentinel"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/__meta/topics"));

  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  EXPECT_TRUE(restarted.HasTopic("normal"));
  EXPECT_TRUE(restarted.HasTopic("."));
  EXPECT_TRUE(restarted.HasTopic("__meta"));
  EXPECT_FALSE(restarted.HasTopic(".."));  // the delete survived, nothing else
  auto meta_topic = restarted.Fetch({"__meta", 0}, 0, 10);
  ASSERT_TRUE(meta_topic.ok());
  ASSERT_EQ(meta_topic.value().size(), 1u);
  EXPECT_EQ(FromBytes(meta_topic.value()[0].message.value), "payload-__meta");
  auto normal = restarted.Fetch({"normal", 0}, 0, 10);
  ASSERT_TRUE(normal.ok());
  ASSERT_EQ(normal.value().size(), 1u);
  EXPECT_EQ(FromBytes(normal.value()[0].message.value), "v");
}

// Forwards everything to the real filesystem but refuses to create
// directories whose path contains `needle` — fails topic-partition wiring
// after the topic-create meta record is already durable.
class FailDirFactory : public io::FileFactory {
 public:
  explicit FailDirFactory(std::string needle)
      : inner_(io::PosixFileFactory::Instance()), needle_(std::move(needle)) {}

  Result<io::LogFilePtr> OpenAppend(const std::string& path) override {
    return inner_->OpenAppend(path);
  }
  Result<Bytes> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  Status CreateDirs(const std::string& path) override {
    if (path.find(needle_) != std::string::npos) {
      return Status::Unavailable("injected CreateDirs failure: " + path);
    }
    return inner_->CreateDirs(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return inner_->ListDir(path);
  }
  Result<std::vector<std::string>> ListSubdirs(const std::string& path) override {
    return inner_->ListSubdirs(path);
  }
  Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  Status RemoveAllUnder(const std::string& path) override {
    return inner_->RemoveAllUnder(path);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }
  Status SyncDir(const std::string& path) override {
    return inner_->SyncDir(path);
  }

 private:
  io::FileFactoryPtr inner_;
  std::string needle_;
};

// A topic create whose disk bootstrap fails after the create record reached
// the meta log must leave a tombstone behind: the caller was told the create
// failed, so a restart must not resurrect the topic.
TEST(DurableBrokerTest, FailedTopicCreateIsTombstonedNotResurrected) {
  std::string dir = TestDir();
  {
    Broker broker;
    ASSERT_TRUE(broker
                    .EnableDurability(DurableAt(
                        dir, FsyncPolicy::kAlways,
                        std::make_shared<FailDirFactory>("/t_doomed")))
                    .ok());
    ASSERT_TRUE(broker.CreateTopic("ok", {.num_partitions = 1}).ok());
    EXPECT_FALSE(broker.CreateTopic("doomed", {.num_partitions = 1}).ok());
    EXPECT_FALSE(broker.HasTopic("doomed"));
  }
  Broker restarted;
  ASSERT_TRUE(restarted.EnableDurability(DurableAt(dir)).ok());
  EXPECT_TRUE(restarted.HasTopic("ok"));
  EXPECT_FALSE(restarted.HasTopic("doomed"));
  // The name is free for reuse once the fault is gone.
  EXPECT_TRUE(restarted.CreateTopic("doomed", {.num_partitions = 1}).ok());
}

TEST(DurableBrokerTest, DurableOffKeepsHeapOnlyBehavior) {
  std::string dir = TestDir();
  Broker broker;
  EXPECT_FALSE(broker.durable());
  ASSERT_TRUE(broker.CreateTopic("t", {.num_partitions = 1}).ok());
  ASSERT_TRUE(broker.Append({"t", 0}, Msg("k", "v")).ok());
  ASSERT_TRUE(broker.SyncDurableLog().ok());  // no-op, not an error
  // Nothing was written anywhere near the (never-registered) directory.
  EXPECT_FALSE(std::filesystem::exists(dir + "/t"));
}

}  // namespace
}  // namespace sqs
