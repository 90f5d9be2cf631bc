//===- VerifierTest.cpp - Tests for the online Verifier -------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "multiset/ArrayMultiset.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

using namespace vyrd;
using namespace vyrd::multiset;

namespace {

std::unique_ptr<Verifier> makeVerifier(VerifierConfig VC,
                                       size_t Capacity = 16) {
  (void)Capacity; // the generic replayer grows its slots on first touch
  return std::make_unique<Verifier>(
      std::make_unique<MultisetSpec>(),
      VC.Checker.Mode == CheckMode::CM_ViewRefinement
          ? KeyValueReplayer::guardedBag("A")
          : nullptr,
      VC);
}

void driveMultiset(Verifier &V, size_t Capacity, unsigned Ops) {
  ArrayMultiset::Options MO;
  MO.Capacity = Capacity;
  ArrayMultiset M(MO, V.hooks());
  for (unsigned I = 0; I < Ops; ++I) {
    M.insert(I % 7);
    M.lookUp(I % 7);
    if (I % 3 == 0)
      M.remove(I % 7);
  }
}

} // namespace

TEST(VerifierTest, OnlineCleanRun) {
  VerifierConfig VC;
  auto V = makeVerifier(VC);
  V->start();
  driveMultiset(*V, 16, 100);
  VerifierReport R = V->finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, R.Stats.CommitsProcessed +
                                        R.Stats.ObserversChecked);
  EXPECT_GT(R.LogRecords, 0u);
}

TEST(VerifierTest, IOModeNeedsNoReplayer) {
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_IORefinement;
  auto V = makeVerifier(VC);
  V->start();
  driveMultiset(*V, 16, 50);
  EXPECT_TRUE(V->finish().ok());
}

TEST(VerifierTest, FileLogPathProducesReloadableLog) {
  std::string Path = std::string(::testing::TempDir()) +
                     "vyrd-verifier-" + std::to_string(::getpid()) +
                     ".bin";
  uint64_t Records = 0;
  {
    VerifierConfig VC;
    VC.LogFilePath = Path;
    auto V = makeVerifier(VC);
    V->start();
    driveMultiset(*V, 16, 50);
    VerifierReport R = V->finish();
    EXPECT_TRUE(R.ok());
    EXPECT_GT(R.LogBytes, 0u);
    Records = R.LogRecords;
  }
  // The on-disk log replays to the same record count.
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  EXPECT_EQ(Loaded.size(), Records);

  // And feeding it to a fresh checker offline reproduces a clean verdict.
  MultisetSpec Spec;
  auto Replay = KeyValueReplayer::guardedBag("A");
  RefinementChecker C(Spec, Replay.get(), CheckerConfig{});
  for (const Action &A : Loaded)
    C.feed(A);
  C.finish();
  EXPECT_FALSE(C.hasViolation());
  std::remove(Path.c_str());
}

TEST(VerifierDeathTest, UnopenableLogFileAborts) {
  // The durable log is what snapshots, shipping and offline re-checks
  // read; a Verifier must refuse to run without it rather than report a
  // clean verdict with no evidence behind it (asserts are compiled out
  // in release builds, so this must not rely on them).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VerifierConfig VC;
  VC.LogFilePath = "/nonexistent-dir-xyz/run.bin";
  EXPECT_DEATH(makeVerifier(VC), "cannot open log file "
                                 "/nonexistent-dir-xyz/run.bin");
}

TEST(VerifierTest, BufferedBackendOnlineCleanRun) {
  VerifierConfig VC;
  auto V = makeVerifier(VC, /*Capacity=*/32);
  V->start();
  // Several producer threads, each through its own shard.
  std::vector<std::thread> Ts;
  ArrayMultiset::Options MO;
  MO.Capacity = 32; // must match the replayer's shadow capacity
  ArrayMultiset M(MO, V->hooks());
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&M, T] {
      for (unsigned I = 0; I < 200; ++I) {
        M.insert((T * 31 + I) % 9);
        M.lookUp(I % 9);
        if (I % 3 == 0)
          M.remove(I % 9);
      }
    });
  for (auto &T : Ts)
    T.join();
  VerifierReport R = V->finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.LogRecords, 0u);
}

TEST(VerifierTest, BufferedBackendWithFileProducesReloadableLog) {
  std::string Path = std::string(::testing::TempDir()) +
                     "vyrd-verifier-buffered-" +
                     std::to_string(::getpid()) + ".bin";
  uint64_t Records = 0;
  {
    VerifierConfig VC;
    VC.LogFilePath = Path;
    auto V = makeVerifier(VC);
    V->start();
    driveMultiset(*V, 16, 50);
    VerifierReport R = V->finish();
    EXPECT_TRUE(R.ok());
    EXPECT_GT(R.LogBytes, 0u);
    Records = R.LogRecords;
  }
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  ASSERT_EQ(Loaded.size(), Records);
  for (size_t I = 0; I < Loaded.size(); ++I)
    EXPECT_EQ(Loaded[I].Seq, I);
  std::remove(Path.c_str());
}

TEST(VerifierTest, ViolationSeenFlagsOnline) {
  // Force a violation by mis-instrumenting: commit without a call.
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_IORefinement;
  auto V = makeVerifier(VC);
  V->start();
  V->log().append(Action::commit(0));
  // The verification thread runs concurrently; poll briefly.
  for (int I = 0; I < 100 && !V->violationSeen(); ++I)
    std::this_thread::yield();
  VerifierReport R = V->finish();
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(V->violationSeen());
}

TEST(VerifierTest, ReportRendering) {
  VerifierConfig VC;
  auto V = makeVerifier(VC);
  V->start();
  driveMultiset(*V, 16, 10);
  VerifierReport R = V->finish();
  std::string S = R.str();
  EXPECT_NE(S.find("no refinement violations"), std::string::npos) << S;
  EXPECT_NE(S.find("records"), std::string::npos) << S;
}
