//===- LogTest.cpp - Unit tests for the log's two sink configurations -----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// BufferedLog keeping its records in memory (the MemoryLogTest suite) and
// writing a log file, with or without the in-memory tail (FileLogTest).
// The suite names are those of the two configurations' historical
// implementations; the shard/flusher mechanics are in BufferedLogTest.
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

using namespace vyrd;

namespace {

std::string tempPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-logtest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

BufferedLog::Options fileLog(const std::string &Path,
                             bool RetainRecords = true) {
  BufferedLog::Options O;
  O.FilePath = Path;
  O.RetainRecords = RetainRecords;
  return O;
}

} // namespace

TEST(MemoryLogTest, AssignsSequentialSeqNumbers) {
  BufferedLog L;
  Name M = internName("m");
  EXPECT_EQ(L.append(Action::call(0, M, {})), 0u);
  EXPECT_EQ(L.append(Action::commit(0)), 1u);
  EXPECT_EQ(L.append(Action::ret(0, M, Value(true))), 2u);
  EXPECT_EQ(L.appendCount(), 3u);
}

TEST(MemoryLogTest, NextDrainsInOrderThenEnds) {
  BufferedLog L;
  Name M = internName("m");
  L.append(Action::call(1, M, {Value(5)}));
  L.append(Action::ret(1, M, Value(false)));
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Call);
  EXPECT_EQ(A.Seq, 0u);
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Return);
  EXPECT_FALSE(L.next(A));
}

TEST(MemoryLogTest, TryNextReportsPendingVsEnd) {
  BufferedLog L;
  Action A;
  bool End = true;
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_FALSE(End) << "log still open: not at end";
  L.close();
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
}

TEST(MemoryLogTest, BlockingReaderWakesOnAppend) {
  BufferedLog L;
  Action Got;
  std::thread Reader([&] { ASSERT_TRUE(L.next(Got)); });
  L.append(Action::commit(7));
  Reader.join();
  EXPECT_EQ(Got.Kind, ActionKind::AK_Commit);
  EXPECT_EQ(Got.Tid, 7u);
  L.close();
}

TEST(MemoryLogTest, ConcurrentAppendersGetUniqueSeqs) {
  BufferedLog L;
  constexpr int PerThread = 500;
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I)
        L.append(Action::commit(0));
    });
  for (auto &T : Ts)
    T.join();
  L.close();
  EXPECT_EQ(L.appendCount(), 4u * PerThread);
  Action A;
  uint64_t Expected = 0;
  while (L.next(A))
    EXPECT_EQ(A.Seq, Expected++);
  EXPECT_EQ(Expected, 4u * PerThread);
}

TEST(FileLogTest, TailServesOnlineReader) {
  std::string Path = tempPath("tail");
  BufferedLog L(fileLog(Path));
  ASSERT_TRUE(L.valid());
  Name M = internName("FileM");
  L.append(Action::call(2, M, {Value(1)}));
  L.append(Action::ret(2, M, Value(true)));
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Call);
  ASSERT_TRUE(L.next(A));
  EXPECT_FALSE(L.next(A));
  std::remove(Path.c_str());
}

TEST(FileLogTest, FileRoundTripsThroughLoadLogFile) {
  std::string Path = tempPath("roundtrip");
  {
    BufferedLog L(fileLog(Path));
    ASSERT_TRUE(L.valid());
    Name M = internName("FileRt");
    Name Var = internName("file.var");
    L.append(Action::call(1, M, {Value(10), Value("arg")}));
    L.append(Action::write(1, Var, Value(Value::Bytes{1, 2, 3})));
    L.append(Action::blockBegin(1));
    L.append(Action::commit(1));
    L.append(Action::blockEnd(1));
    L.append(Action::ret(1, M, Value(false)));
    L.close();
  }
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  ASSERT_EQ(Loaded.size(), 6u);
  EXPECT_EQ(Loaded[0].Kind, ActionKind::AK_Call);
  EXPECT_EQ(Loaded[0].Args[1], Value("arg"));
  EXPECT_EQ(Loaded[1].Ret, Value(Value::Bytes{1, 2, 3}));
  EXPECT_EQ(Loaded[3].Kind, ActionKind::AK_Commit);
  EXPECT_EQ(Loaded[5].Ret, Value(false));
  for (size_t I = 0; I < Loaded.size(); ++I)
    EXPECT_EQ(Loaded[I].Seq, I);
  std::remove(Path.c_str());
}

TEST(FileLogTest, ByteCountGrows) {
  std::string Path = tempPath("bytes");
  BufferedLog L(fileLog(Path));
  ASSERT_TRUE(L.valid());
  // A fresh file already holds the format header (docs/LOGFORMAT.md):
  // 4 magic bytes + 1 version varint.
  EXPECT_EQ(L.byteCount(), 5u);
  // The flusher writes a record to the file before publishing it to the
  // reader, so reading it back means its bytes are counted.
  Action A;
  L.append(Action::commit(0));
  ASSERT_TRUE(L.next(A));
  uint64_t B1 = L.byteCount();
  EXPECT_GT(B1, 5u);
  L.append(Action::commit(0));
  ASSERT_TRUE(L.next(A));
  EXPECT_GT(L.byteCount(), B1);
  L.close();
  std::remove(Path.c_str());
}

TEST(FileLogTest, NoTailModeRetainsNothingButStillWritesFile) {
  std::string Path = tempPath("notail");
  {
    BufferedLog L(fileLog(Path, /*RetainRecords=*/false));
    ASSERT_TRUE(L.valid());
    for (int I = 0; I < 10; ++I)
      L.append(Action::commit(0));
    L.close();
    Action A;
    EXPECT_FALSE(L.next(A)) << "no tail kept";
    EXPECT_EQ(L.appendCount(), 10u);
  }
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  EXPECT_EQ(Loaded.size(), 10u);
  std::remove(Path.c_str());
}

TEST(MemoryLogTest, TryNextDrainsTailThenSignalsEnd) {
  BufferedLog L;
  L.append(Action::commit(1));
  L.append(Action::commit(2));
  L.close();
  // After close the pending records must still drain before End is
  // reported.
  Action A;
  bool End = true;
  ASSERT_TRUE(L.tryNext(A, End));
  EXPECT_EQ(A.Tid, 1u);
  EXPECT_FALSE(End);
  ASSERT_TRUE(L.tryNext(A, End));
  EXPECT_EQ(A.Tid, 2u);
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
}

TEST(MemoryLogTest, NextBatchDrainsUpToMax) {
  BufferedLog L;
  for (int I = 0; I < 7; ++I)
    L.append(Action::commit(0));
  L.close();
  std::vector<Action> Batch;
  ASSERT_TRUE(L.nextBatch(Batch, 5));
  EXPECT_EQ(Batch.size(), 5u);
  EXPECT_EQ(Batch[4].Seq, 4u);
  ASSERT_TRUE(L.nextBatch(Batch, 5));
  EXPECT_EQ(Batch.size(), 2u);
  EXPECT_FALSE(L.nextBatch(Batch, 5));
  EXPECT_TRUE(Batch.empty());
}

TEST(FileLogTest, NoTailTryNextSignalsEndOnlyAfterClose) {
  std::string Path = tempPath("notail-signal");
  BufferedLog L(fileLog(Path, /*RetainRecords=*/false));
  ASSERT_TRUE(L.valid());
  L.append(Action::commit(0));
  // Without a tail the records are never readable, but the reader must
  // still be told "not yet" until the log closes, and "end" after.
  Action A;
  bool End = true;
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_FALSE(End);
  L.close();
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
  std::remove(Path.c_str());
}

TEST(FileLogTest, NoTailNextBatchReportsEndAfterClose) {
  std::string Path = tempPath("notail-batch");
  BufferedLog L(fileLog(Path, /*RetainRecords=*/false));
  ASSERT_TRUE(L.valid());
  for (int I = 0; I < 3; ++I)
    L.append(Action::commit(0));
  L.close();
  std::vector<Action> Batch;
  EXPECT_FALSE(L.nextBatch(Batch, 16));
  EXPECT_TRUE(Batch.empty());
  EXPECT_EQ(L.appendCount(), 3u);
  std::remove(Path.c_str());
}

TEST(FileLogTest, InvalidPathReportsInvalid) {
  BufferedLog L(fileLog("/nonexistent-dir-xyz/file.bin"));
  EXPECT_FALSE(L.valid());
}

TEST(FileLogTest, LoadLogFileFailsOnMissingFile) {
  std::vector<Action> Loaded;
  EXPECT_FALSE(loadLogFile("/nonexistent-dir-xyz/file.bin", Loaded));
}
