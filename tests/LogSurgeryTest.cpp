//===- LogSurgeryTest.cpp - Mutated-log detection properties ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records one clean multiset trace, then applies surgical mutations and
/// re-checks: each class of corruption must produce the right class of
/// violation (or, where the specification is deliberately permissive,
/// none). This pins down the checker's failure taxonomy end to end.
///
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Checker.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::harness;
using namespace vyrd::multiset;

namespace {

class LogSurgeryTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    // One shared clean trace (sequential, so mutations have predictable
    // effect).
    Trace = new std::vector<Action>();
    ScenarioOptions SO;
    SO.Prog = Program::P_MultisetVector;
    SO.Mode = RunMode::RM_LogOnlyView;
    Scenario S = makeScenario(SO);
    WorkloadOptions WO;
    WO.Threads = 1;
    WO.OpsPerThread = 300;
    WO.KeyPoolSize = 8;
    WO.Seed = 42;
    runWorkload(WO, S.Op);
    // Finish closes the log; without a LogPath the logging-only mode keeps
    // the records in memory, so drain them afterwards.
    S.Finish();
    Action A;
    while (S.L->next(A))
      Trace->push_back(A);
    ASSERT_GT(Trace->size(), 500u);
  }

  static void TearDownTestSuite() {
    delete Trace;
    Trace = nullptr;
  }

  /// Checks \p Mutated and returns the violations.
  static std::vector<Violation> check(std::vector<Action> Mutated) {
    MultisetSpec Spec;
    auto Replay = KeyValueReplayer::guardedBag("A");
    CheckerConfig CC;
    CC.AuditPeriod = 64;
    RefinementChecker C(Spec, Replay.get(), CC);
    uint64_t Seq = 0;
    for (Action &A : Mutated) {
      A.Seq = Seq++;
      C.feed(A);
    }
    C.finish();
    return C.violations();
  }

  static size_t findIndex(ActionKind K, Name Method, const Value *Ret,
                          size_t Skip = 0) {
    for (size_t I = 0; I < Trace->size(); ++I) {
      const Action &A = (*Trace)[I];
      if (A.Kind != K)
        continue;
      if (Method.valid() && A.Method != Method)
        continue;
      if (Ret && !(A.Ret == *Ret))
        continue;
      if (Skip--)
        continue;
      return I;
    }
    return SIZE_MAX;
  }

  static std::vector<Action> *Trace;
};

std::vector<Action> *LogSurgeryTest::Trace = nullptr;

} // namespace

TEST_F(LogSurgeryTest, UnmodifiedTraceIsClean) {
  EXPECT_TRUE(check(*Trace).empty());
}

TEST_F(LogSurgeryTest, FlippedLookUpReturnIsObserverMismatch) {
  Vocab V = Vocab::get();
  // Flip every LookUp's return until one yields a violation (a flipped
  // answer can occasionally be allowed by a concurrent window, but in a
  // sequential trace the first flip must trip).
  size_t Idx = findIndex(ActionKind::AK_Return, V.LookUp, nullptr);
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M[Idx].Ret = Value(!M[Idx].Ret.asBool());
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs.front().Kind, ViolationKind::VK_ObserverMismatch);
}

TEST_F(LogSurgeryTest, SuccessfulInsertClaimedFailedIsViewMismatch) {
  // Flipping Insert's return true->false is I/O-legal (failure is always
  // permitted) but the logged writes still happened: only view refinement
  // notices.
  Vocab V = Vocab::get();
  Value True(true);
  size_t Idx = findIndex(ActionKind::AK_Return, V.Insert, &True);
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M[Idx].Ret = Value(false);
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs.front().Kind, ViolationKind::VK_ViewMismatch);
}

TEST_F(LogSurgeryTest, FailedDeleteClaimedSuccessfulIsMutatorMismatch) {
  Vocab V = Vocab::get();
  Value False(false);
  size_t Idx = findIndex(ActionKind::AK_Return, V.Delete, &False);
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M[Idx].Ret = Value(true);
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs.front().Kind, ViolationKind::VK_MutatorMismatch);
  // In a sequential trace the claim can never become enabled later:
  EXPECT_NE(Vs.front().Message.find("genuine"), std::string::npos)
      << Vs.front().Message;
}

TEST_F(LogSurgeryTest, DroppedCommitIsInstrumentationError) {
  size_t Idx = findIndex(ActionKind::AK_Commit, Name(), nullptr, 3);
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M.erase(M.begin() + Idx);
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  bool HasInstr = false;
  for (const Violation &V : Vs)
    HasInstr |= V.Kind == ViolationKind::VK_Instrumentation;
  EXPECT_TRUE(HasInstr);
}

TEST_F(LogSurgeryTest, DuplicatedCommitIsInstrumentationError) {
  size_t Idx = findIndex(ActionKind::AK_Commit, Name(), nullptr, 5);
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M.insert(M.begin() + Idx, (*Trace)[Idx]);
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs.front().Kind, ViolationKind::VK_Instrumentation);
}

TEST_F(LogSurgeryTest, DroppedWriteIsViewMismatch) {
  // Remove the valid-bit write of some insert: the spec applies the
  // insert but the shadow never sees the publication.
  size_t Idx = SIZE_MAX;
  for (size_t I = 0; I < Trace->size(); ++I) {
    const Action &A = (*Trace)[I];
    if (A.Kind == ActionKind::AK_Write && A.Ret.isBool() &&
        A.Ret.asBool()) {
      Idx = I;
      break;
    }
  }
  ASSERT_NE(Idx, SIZE_MAX);
  std::vector<Action> M = *Trace;
  M.erase(M.begin() + Idx);
  std::vector<Violation> Vs = check(M);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs.front().Kind, ViolationKind::VK_ViewMismatch);
}

TEST_F(LogSurgeryTest, TruncatedTailIsToleratedByDefault) {
  std::vector<Action> M(*Trace);
  M.resize(M.size() * 2 / 3);
  // Truncation may cut mid-execution; with the default tolerant tail the
  // only acceptable outcomes are "clean" or nothing at all... but a cut
  // inside a commit block can orphan state. Accept clean or
  // instrumentation-only reports.
  for (const Violation &V : check(M))
    EXPECT_EQ(V.Kind, ViolationKind::VK_Instrumentation) << V.str();
}

TEST_F(LogSurgeryTest, SwappedAdjacentCommitsOfDifferentKeysStillClean) {
  // Two adjacent *independent* mutator commits (different keys) commute:
  // swapping their order in the witness must not create violations.
  // Find two adjacent commit records from different executions... in a
  // sequential trace every method completes before the next begins, so
  // swapping whole method spans is the honest version of this test; we
  // swap two entire adjacent Insert executions of different keys.
  Vocab V = Vocab::get();
  // Locate two consecutive complete call..return spans.
  auto SpanAt = [&](size_t Start, size_t &End) -> bool {
    if (Start >= Trace->size() ||
        (*Trace)[Start].Kind != ActionKind::AK_Call)
      return false;
    for (size_t I = Start + 1; I < Trace->size(); ++I) {
      if ((*Trace)[I].Kind == ActionKind::AK_Return) {
        End = I;
        return true;
      }
      if ((*Trace)[I].Kind == ActionKind::AK_Call)
        return false;
    }
    return false;
  };
  for (size_t I = 0; I + 1 < Trace->size(); ++I) {
    size_t End1, End2;
    if (!SpanAt(I, End1))
      continue;
    if (!SpanAt(End1 + 1, End2))
      continue;
    const Action &C1 = (*Trace)[I];
    const Action &C2 = (*Trace)[End1 + 1];
    if (C1.Method != V.Insert || C2.Method != V.Insert)
      continue;
    if (C1.Args[0] == C2.Args[0])
      continue;
    std::vector<Action> M;
    M.insert(M.end(), Trace->begin(), Trace->begin() + I);
    M.insert(M.end(), Trace->begin() + End1 + 1,
             Trace->begin() + End2 + 1);
    M.insert(M.end(), Trace->begin() + I, Trace->begin() + End1 + 1);
    M.insert(M.end(), Trace->begin() + End2 + 1, Trace->end());
    EXPECT_TRUE(check(M).empty())
        << "independent inserts must commute in the witness";
    return;
  }
  GTEST_SKIP() << "no adjacent independent insert pair in this trace";
}
