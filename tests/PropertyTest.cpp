//===- PropertyTest.cpp - Parameterized property sweeps --------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweeps over (program x mode x seed):
///  * soundness — correct implementations never produce violations, under
///    both I/O and view refinement, online and post-mortem (a recorded
///    log file checked by epochCheck), with audits on;
///  * sensitivity — each injected Table 1 bug is eventually detected;
///  * determinism — re-checking a recorded log yields the online verdict.
///
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Checker.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

struct SweepParam {
  Program Prog;
  RunMode Mode;
  uint64_t Seed;
};

/// A sweep instance in RM_LogOnlyView is post-mortem: the run is recorded
/// to a file and checked at view level from record 0 by epochCheck
/// afterwards. Its ID says "offline_view".
bool postMortem(RunMode M) { return M == RunMode::RM_LogOnlyView; }

std::string paramName(const ::testing::TestParamInfo<SweepParam> &Info) {
  RunMode M = Info.param.Mode;
  std::string N = std::string(programName(Info.param.Prog)) + "_" +
                  (postMortem(M) ? "offline-view" : runModeName(M)) + "_s" +
                  std::to_string(Info.param.Seed);
  for (char &C : N)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N;
}

VerifierReport runSweep(const SweepParam &P, bool Buggy, unsigned Threads,
                        unsigned Ops) {
  ScenarioOptions SO;
  SO.Prog = P.Prog;
  SO.Mode = P.Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = Buggy;
  SO.AuditPeriod = Buggy ? 0 : 64;
  if (postMortem(P.Mode))
    SO.LogPath = std::string(::testing::TempDir()) + "vyrd-sweep-" +
                 std::to_string(static_cast<int>(P.Prog)) + "-" +
                 std::to_string(P.Seed) + "-" + std::to_string(::getpid()) +
                 ".bin";
  Scenario S = makeScenario(SO);
  Chaos::enable(4, P.Seed);
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = Ops;
  WO.KeyPoolSize = 16;
  WO.Seed = P.Seed;
  WO.BackgroundOp = S.BackgroundOp;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  VerifierReport R = S.Finish();
  if (!postMortem(P.Mode))
    return R;
  EpochCheckOptions EO;
  EO.Checker.StopAtFirstViolation = SO.StopAtFirstViolation;
  EO.Checker.AuditPeriod = SO.AuditPeriod;
  EO.UseSnapshots = false;
  EpochReport ER =
      epochCheck(SO.LogPath, 1, makeProgramPipeline(P.Prog, true), EO);
  std::remove(SO.LogPath.c_str());
  EXPECT_EQ(ER.Error, "");
  return ER.Report;
}

} // namespace

//===----------------------------------------------------------------------===//
// Soundness sweep
//===----------------------------------------------------------------------===//

class SoundnessSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SoundnessSweep, CorrectImplementationIsClean) {
  VerifierReport R = runSweep(GetParam(), /*Buggy=*/false, 6, 150);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.Stats.MethodsChecked, 0u);
}

namespace {

std::vector<Program> sweptPrograms() {
  std::vector<Program> Ps = allPrograms();
  for (Program P : extensionPrograms())
    Ps.push_back(P);
  return Ps;
}

std::vector<SweepParam> soundnessParams() {
  std::vector<SweepParam> Ps;
  for (Program P : sweptPrograms())
    for (RunMode M : {RunMode::RM_OnlineIO, RunMode::RM_OnlineView,
                      RunMode::RM_LogOnlyView})
      for (uint64_t Seed : {11, 22})
        Ps.push_back({P, M, Seed});
  return Ps;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPrograms, SoundnessSweep,
                         ::testing::ValuesIn(soundnessParams()),
                         paramName);

//===----------------------------------------------------------------------===//
// Sensitivity sweep
//===----------------------------------------------------------------------===//

struct BugParam {
  Program Prog;
  RunMode Mode;
};

class SensitivitySweep : public ::testing::TestWithParam<BugParam> {};

TEST_P(SensitivitySweep, InjectedBugIsDetected) {
  const BugParam &P = GetParam();
  // I/O refinement needs the corruption to surface in a return value, so
  // it gets a larger budget (the Table 1 asymmetry).
  unsigned Ops = P.Mode == RunMode::RM_OnlineView ? 400 : 1600;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 40 && !Caught; ++Seed) {
    VerifierReport R = runSweep({P.Prog, P.Mode, Seed}, true, 8, Ops);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << programName(P.Prog) << " bug ("
                      << programBugName(P.Prog) << ") not detected by "
                      << runModeName(P.Mode) << " in 40 seeds";
}

namespace {

std::vector<BugParam> sensitivityParams() {
  std::vector<BugParam> Ps;
  for (Program P : sweptPrograms()) {
    Ps.push_back({P, RunMode::RM_OnlineView});
    Ps.push_back({P, RunMode::RM_OnlineIO});
  }
  return Ps;
}

std::string bugParamName(const ::testing::TestParamInfo<BugParam> &Info) {
  std::string N = std::string(programName(Info.param.Prog)) + "_" +
                  runModeName(Info.param.Mode);
  for (char &C : N)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBugs, SensitivitySweep,
                         ::testing::ValuesIn(sensitivityParams()),
                         bugParamName);

//===----------------------------------------------------------------------===//
// Log determinism
//===----------------------------------------------------------------------===//

class ReplayDeterminism : public ::testing::TestWithParam<Program> {};

TEST_P(ReplayDeterminism, RecordedLogReplaysToSameVerdict) {
  // Run online with a file log; then re-check the file from record 0 and
  // expect the online run's stats and verdict.
  std::string Path = std::string(::testing::TempDir()) + "vyrd-replay-" +
                     std::to_string(static_cast<int>(GetParam())) + "-" +
                     std::to_string(::getpid()) + ".bin";
  ScenarioOptions SO;
  SO.Prog = GetParam();
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Path;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, 99);
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 80;
  WO.Seed = 99;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  Chaos::disable();
  VerifierReport Online = S.Finish();
  ASSERT_TRUE(Online.ok()) << Online.str();

  EpochCheckOptions EO;
  EO.UseSnapshots = false;
  EpochReport ER =
      epochCheck(Path, 1, makeProgramPipeline(GetParam(), true), EO);
  EXPECT_TRUE(ER.ok()) << ER.Error << ER.Report.str();
  EXPECT_EQ(ER.Report.LogRecords, Online.LogRecords);
  EXPECT_EQ(ER.Report.Stats.MethodsChecked, Online.Stats.MethodsChecked);
  EXPECT_EQ(ER.Report.Stats.CommitsProcessed, Online.Stats.CommitsProcessed);
  EXPECT_EQ(ER.Report.Stats.ObserversChecked, Online.Stats.ObserversChecked);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ReplayDeterminism,
                         ::testing::ValuesIn(sweptPrograms()),
                         [](const ::testing::TestParamInfo<Program> &I) {
                           std::string N = programName(I.param);
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });
