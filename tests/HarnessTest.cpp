//===- HarnessTest.cpp - Tests for the workload harness and scenarios -----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace vyrd;
using namespace vyrd::harness;

//===----------------------------------------------------------------------===//
// Rng / KeyPool
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    (void)C.next();
  }
  Rng A2(42), C2(43);
  bool Differs = false;
  for (int I = 0; I < 10; ++I)
    Differs |= A2.next() != C2.next();
  EXPECT_TRUE(Differs);
}

TEST(RngTest, RangeStaysInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.range(17), 17u);
  EXPECT_EQ(R.range(0), 0u);
}

TEST(RngTest, PercentRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.percent(30);
  EXPECT_GT(Hits, 2500);
  EXPECT_LT(Hits, 3500);
}

TEST(KeyPoolTest, PicksFromPool) {
  KeyPool P(10, 1000, 0.5, 1);
  std::set<int64_t> Pool;
  Rng R(3);
  for (int I = 0; I < 500; ++I)
    Pool.insert(P.pick(R, 0.0));
  EXPECT_LE(Pool.size(), 10u);
  EXPECT_GE(Pool.size(), 5u);
}

TEST(KeyPoolTest, ShrinksWithProgress) {
  KeyPool P(100, 1 << 20, 0.1, 2);
  Rng R(5);
  std::set<int64_t> Early, Late;
  for (int I = 0; I < 2000; ++I)
    Early.insert(P.pick(R, 0.0));
  for (int I = 0; I < 2000; ++I)
    Late.insert(P.pick(R, 1.0));
  EXPECT_GT(Early.size(), 60u);
  EXPECT_LE(Late.size(), 10u) << "pool must shrink to 10% of its size";
  for (int64_t K : Late)
    EXPECT_TRUE(Early.count(K)) << "late keys are a prefix of the pool";
}

TEST(KeyPoolTest, ProgressClamped) {
  KeyPool P(10, 100, 0.5, 3);
  Rng R(1);
  (void)P.pick(R, -1.0);
  (void)P.pick(R, 2.0); // must not crash or index out of bounds
}

//===----------------------------------------------------------------------===//
// runWorkload
//===----------------------------------------------------------------------===//

TEST(WorkloadTest, IssuesExactOpCount) {
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 250;
  std::atomic<uint64_t> Count{0};
  WorkloadResult R = runWorkload(
      WO, [&](Rng &, int64_t, int64_t, double) { ++Count; });
  EXPECT_EQ(R.OpsIssued, 1000u);
  EXPECT_EQ(Count.load(), 1000u);
  EXPECT_FALSE(R.StoppedEarly);
}

TEST(WorkloadTest, BackgroundOpRunsAndStops) {
  WorkloadOptions WO;
  WO.Threads = 2;
  WO.OpsPerThread = 200;
  std::atomic<uint64_t> BgRuns{0};
  WO.BackgroundOp = [&] { ++BgRuns; };
  runWorkload(WO, [&](Rng &, int64_t, int64_t, double) {});
  EXPECT_GT(BgRuns.load(), 0u);
  uint64_t After = BgRuns.load();
  // The background thread must have been joined: no more increments.
  EXPECT_EQ(BgRuns.load(), After);
}

TEST(WorkloadTest, ProgressIsMonotonePerThread) {
  WorkloadOptions WO;
  WO.Threads = 1;
  WO.OpsPerThread = 100;
  double Last = -1;
  bool Monotone = true;
  runWorkload(WO, [&](Rng &, int64_t, int64_t, double P) {
    Monotone &= P >= Last;
    Last = P;
  });
  EXPECT_TRUE(Monotone);
  EXPECT_LT(Last, 1.0);
}

//===----------------------------------------------------------------------===//
// Scenario wiring
//===----------------------------------------------------------------------===//

TEST(ScenarioTest, BareModeHasNoLogOrVerifier) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_Bare;
  Scenario S = makeScenario(SO);
  EXPECT_EQ(S.L, nullptr);
  EXPECT_EQ(S.V, nullptr);
  Rng R(1);
  S.Op(R, 5, 6, 0.0); // runs without logging
  VerifierReport Rep = S.Finish();
  EXPECT_EQ(Rep.LogRecords, 0u);
}

TEST(ScenarioTest, LogOnlyModeRecordsWithoutChecking) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_LogOnlyView;
  Scenario S = makeScenario(SO);
  ASSERT_NE(S.L, nullptr);
  EXPECT_EQ(S.V, nullptr);
  Rng R(1);
  for (int I = 0; I < 20; ++I)
    S.Op(R, I, I + 1, 0.0);
  VerifierReport Rep = S.Finish();
  EXPECT_GT(Rep.LogRecords, 0u);
  EXPECT_EQ(Rep.Stats.MethodsChecked, 0u);
}

TEST(ScenarioTest, IOLevelLogsFewerRecordsThanViewLevel) {
  auto Records = [](RunMode Mode) {
    ScenarioOptions SO;
    SO.Mode = Mode;
    Scenario S = makeScenario(SO);
    Rng R(1);
    for (int I = 0; I < 50; ++I)
      S.Op(R, I % 8, I % 5, 0.0);
    return S.Finish().LogRecords;
  };
  uint64_t IO = Records(RunMode::RM_LogOnlyIO);
  uint64_t View = Records(RunMode::RM_LogOnlyView);
  EXPECT_LT(IO, View) << "write records only exist at view level";
}

TEST(ScenarioTest, AllProgramsBuildInAllModes) {
  for (Program P : allPrograms()) {
    for (RunMode M :
         {RunMode::RM_Bare, RunMode::RM_LogOnlyIO, RunMode::RM_LogOnlyView,
          RunMode::RM_OnlineIO, RunMode::RM_OnlineView}) {
      ScenarioOptions SO;
      SO.Prog = P;
      SO.Mode = M;
      Scenario S = makeScenario(SO);
      Rng R(1);
      for (int I = 0; I < 10; ++I)
        S.Op(R, I, I + 3, 0.0);
      VerifierReport Rep = S.Finish();
      EXPECT_TRUE(Rep.Violations.empty())
          << S.Name << ": " << Rep.str();
    }
  }
}

TEST(ScenarioTest, BufferedBackendLogsAndChecks) {
  // Log-only: the log records without a consumer.
  {
    ScenarioOptions SO;
    SO.Mode = RunMode::RM_LogOnlyView;
    Scenario S = makeScenario(SO);
    ASSERT_NE(S.L, nullptr);
    Rng R(1);
    for (int I = 0; I < 20; ++I)
      S.Op(R, I, I + 1, 0.0);
    VerifierReport Rep = S.Finish();
    EXPECT_GT(Rep.LogRecords, 0u);
    EXPECT_EQ(Rep.Stats.MethodsChecked, 0u);
  }
  // Online checking over the sharded log, multi-threaded.
  {
    ScenarioOptions SO;
    SO.Mode = RunMode::RM_OnlineView;
    Scenario S = makeScenario(SO);
    WorkloadOptions WO;
    WO.Threads = 4;
    WO.OpsPerThread = 150;
    WO.Seed = 3;
    runWorkload(WO, S.Op);
    VerifierReport Rep = S.Finish();
    EXPECT_TRUE(Rep.ok()) << Rep.str();
    EXPECT_GT(Rep.Stats.MethodsChecked, 0u);
  }
}

TEST(ScenarioTest, BufferedBackendStillCatchesTheInjectedBug) {
  // The Fig. 5 multiset bug must be caught identically through the
  // sharded log: the merged order is a faithful witness order.
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 20 && !Caught; ++Seed) {
    ScenarioOptions SO;
    SO.Mode = RunMode::RM_OnlineView;
    SO.Buggy = true;
    SO.StopAtFirstViolation = true;
    Scenario S = makeScenario(SO);
    Chaos::enable(4, Seed);
    WorkloadOptions WO;
    WO.Threads = 8;
    WO.OpsPerThread = 400;
    WO.KeyPoolSize = 24;
    WO.Seed = Seed;
    WO.StopOnViolation = S.V;
    runWorkload(WO, S.Op);
    Chaos::disable();
    Caught = !S.Finish().ok();
  }
  EXPECT_TRUE(Caught) << "injected bug never detected in 20 seeds";
}

TEST(ScenarioTest, NamesAreDescriptive) {
  ScenarioOptions SO;
  SO.Prog = Program::P_Cache;
  SO.Mode = RunMode::RM_OnlineView;
  SO.Buggy = true;
  Scenario S = makeScenario(SO);
  EXPECT_NE(S.Name.find("Cache"), std::string::npos);
  EXPECT_NE(S.Name.find("online-view"), std::string::npos);
  EXPECT_NE(S.Name.find("buggy"), std::string::npos);
  (void)S.Finish();
}

//===----------------------------------------------------------------------===//
// Composite multi-object scenario
//===----------------------------------------------------------------------===//

TEST(ScenarioTest, CompositeScenarioVerifiesFourObjectsCleanly) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  Scenario S = makeCompositeScenario(SO);
  ASSERT_NE(S.V, nullptr);
  EXPECT_EQ(S.V->objectCount(), 4u);
  ASSERT_EQ(S.Objects.size(), 4u);
  WorkloadOptions WO;
  WO.Threads = 3;
  WO.OpsPerThread = 200;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  VerifierReport R = S.Finish();
  EXPECT_TRUE(R.ok()) << R.str();
  ASSERT_EQ(R.Objects.size(), 4u);
  for (size_t I = 0; I < R.Objects.size(); ++I) {
    EXPECT_EQ(R.Objects[I].Name, S.Objects[I]);
    EXPECT_GT(R.Objects[I].Records, 0u) << S.Objects[I];
  }
}

TEST(ScenarioTest, CompositeScenarioWithCheckerPool) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.CheckerThreads = 4;
  Scenario S = makeCompositeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 300;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  VerifierReport R = S.Finish();
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ScenarioTest, CompositeBugIsAttributedToTheMultiset) {
  // The injected bug lives in the multiset; under chaos scheduling the
  // violation must be reported against "multiset", never a bystander.
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.Buggy = true;
  bool Found = false;
  for (uint64_t Seed = 1; Seed <= 20 && !Found; ++Seed) {
    Scenario S = makeCompositeScenario(SO);
    Chaos::enable(4, Seed);
    WorkloadOptions WO;
    WO.Threads = 6;
    WO.OpsPerThread = 300;
    WO.KeyPoolSize = 8;
    WO.Seed = Seed;
    WO.StopOnViolation = S.V;
    runWorkload(WO, S.Op);
    Chaos::disable();
    VerifierReport R = S.Finish();
    for (const Violation &V : R.Violations) {
      EXPECT_EQ(V.Object.str(), "multiset") << V.str();
      Found = true;
    }
  }
  EXPECT_TRUE(Found) << "injected multiset bug never fired in 20 seeds";
}

TEST(ScenarioTest, CompositeLogOnlyStampsAllObjects) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_LogOnlyView;
  Scenario S = makeCompositeScenario(SO);
  ASSERT_EQ(S.V, nullptr);
  ASSERT_NE(S.L, nullptr);
  WorkloadOptions WO;
  WO.Threads = 2;
  WO.OpsPerThread = 200;
  runWorkload(WO, S.Op);
  // Close the log first (next() blocks while it is open), then drain the
  // retained records and count the object ids.
  VerifierReport R = S.Finish();
  EXPECT_GT(R.LogRecords, 0u);
  std::set<ObjectId> Seen;
  Action A;
  while (S.L->next(A))
    Seen.insert(A.Obj);
  EXPECT_EQ(Seen.size(), 4u) << "all four objects must appear in the log";
}
