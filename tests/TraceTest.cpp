//===- TraceTest.cpp - Tests for the trace_event recorder -----------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the Action -> Chrome trace_event mapping (spans for methods,
/// instants for commits/writes, the verifier track), that the rendered
/// document is valid JSON with the expected event population, that
/// unbalanced call spans are auto-closed, and that a Verifier run with
/// TraceFilePath set writes a loadable trace.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Trace.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace vyrd;
using namespace vyrd::test;

namespace {

/// Feeds a scripted action list with sequence numbers assigned in order.
void feed(TraceRecorder &TR, std::vector<Action> Script) {
  uint64_t Seq = 0;
  for (Action &A : Script) {
    A.Seq = Seq++;
    TR.noteAction(A);
  }
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(TraceTest, MapsActionsToSpansAndInstants) {
  TraceRecorder TR;
  Name M = name("ms.Insert");
  Name Var = name("elt[3]");
  feed(TR, {
               Action::call(2, M, {Value(int64_t(3))}),
               Action::write(2, Var, Value(int64_t(3))),
               Action::commit(2),
               Action::ret(2, M, Value(true)),
           });
  EXPECT_EQ(TR.eventCount(), 4u);

  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  // Method span on track 2, named after the method.
  EXPECT_NE(J.find("\"name\":\"ms.Insert\",\"ph\":\"B\",\"pid\":1,"
                   "\"tid\":2,\"ts\":0"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"name\":\"ms.Insert\",\"ph\":\"E\""),
            std::string::npos);
  // The commit instant is named after the enclosing open method.
  EXPECT_NE(J.find("\"name\":\"commit ms.Insert\",\"ph\":\"i\""),
            std::string::npos)
      << J;
  // The write instant shows var := value.
  EXPECT_NE(J.find("elt[3] := 3"), std::string::npos) << J;
  // Track metadata names the impl thread.
  EXPECT_NE(J.find("\"name\":\"impl thread 2\""), std::string::npos) << J;
  // Balanced script: no synthesized closers, so B and E counts match.
  EXPECT_EQ(countOccurrences(J, "\"ph\":\"B\""),
            countOccurrences(J, "\"ph\":\"E\""));
}

TEST(TraceTest, VerifierTrackEvents) {
  TraceRecorder TR;
  TR.noteCheckSpan(0, 9, 10);
  TR.noteVerifierInstant(5, "violation: ViewMismatch");
  EXPECT_EQ(TR.eventCount(), 3u); // B + E + instant

  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"name\":\"verifier\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"check\",\"ph\":\"B\",\"pid\":1,"
                   "\"tid\":1000000,\"ts\":0"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"first_seq\":0,\"last_seq\":9,\"actions\":10"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("violation: ViewMismatch"), std::string::npos) << J;
}

TEST(TraceTest, AutoClosesUnbalancedSpans) {
  TraceRecorder TR;
  Name Outer = name("t.Outer");
  Name Inner = name("t.Inner");
  // Two spans left open on the same track (a truncated log tail).
  feed(TR, {
               Action::call(1, Outer, {}),
               Action::call(1, Inner, {}),
               Action::write(1, name("x"), Value(int64_t(1))),
           });
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_EQ(countOccurrences(J, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(countOccurrences(J, "\"ph\":\"E\""), 2u);
  // Inner-most first keeps the nesting valid; both close after MaxTs.
  size_t InnerE = J.find("\"name\":\"t.Inner\",\"ph\":\"E\"");
  size_t OuterE = J.find("\"name\":\"t.Outer\",\"ph\":\"E\"");
  ASSERT_NE(InnerE, std::string::npos);
  ASSERT_NE(OuterE, std::string::npos);
  EXPECT_LT(InnerE, OuterE);
}

TEST(TraceTest, CommitBlockAndReplayMapping) {
  TraceRecorder TR;
  feed(TR, {
               Action::blockBegin(3),
               Action::replayOp(3, name("insert"), {Value(int64_t(7))}),
               Action::blockEnd(3),
           });
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"name\":\"commit-block\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(J.find("\"name\":\"replay insert\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(J.find("\"name\":\"commit-block\",\"ph\":\"E\""),
            std::string::npos);
}

TEST(TraceTest, EscapesNamesInJson) {
  TraceRecorder TR;
  TR.noteVerifierInstant(0, "quote \" backslash \\ tab \t");
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("quote \\\" backslash \\\\ tab \\t"),
            std::string::npos)
      << J;
}

TEST(TraceTest, WriteFileRoundTrips) {
  TraceRecorder TR;
  Name M = name("t.Op");
  feed(TR, {Action::call(1, M, {}), Action::ret(1, M, Value(true))});
  std::string Path = std::string(::testing::TempDir()) +
                     "vyrd-tracetest-" + std::to_string(::getpid()) +
                     ".json";
  ASSERT_TRUE(TR.writeFile(Path));
  EXPECT_EQ(slurp(Path), TR.json());
  std::remove(Path.c_str());
  EXPECT_FALSE(TR.writeFile("/nonexistent-xyz/trace.json"));
}

TEST(TraceTest, VerifierWritesTraceFile) {
  std::string Path = std::string(::testing::TempDir()) +
                     "vyrd-tracetest-verifier-" +
                     std::to_string(::getpid()) + ".json";
  VerifierConfig VC;
  VC.Telemetry.TraceFilePath = Path;
  Verifier V(std::make_unique<multiset::MultisetSpec>(),
             KeyValueReplayer::guardedBag("A"), VC);
  V.start();
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, V.hooks());
  for (unsigned I = 0; I < 60; ++I) {
    M.insert(I % 5);
    M.lookUp(I % 5);
  }
  VerifierReport R = V.finish();
  ASSERT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.TraceEvents, 0u);

  std::string J = slurp(Path);
  std::remove(Path.c_str());
  ASSERT_FALSE(J.empty());
  EXPECT_TRUE(jsonValid(J)) << J.substr(0, 400);
  // Impl tracks and the online verifier's check spans are both present.
  EXPECT_NE(J.find("\"name\":\"impl thread"), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"verifier\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"check\",\"ph\":\"B\""), std::string::npos);
  // The document carries exactly the recorded events plus one metadata
  // event per track plus the process_name event (balanced script: no
  // synthesized closers).
  size_t Tracks = countOccurrences(J, "\"name\":\"thread_name\"");
  EXPECT_EQ(countOccurrences(J, "\"ph\":"), R.TraceEvents + Tracks + 1);
}

//===----------------------------------------------------------------------===//
// Multi-object track groups (one trace "process" per verified object)
//===----------------------------------------------------------------------===//

TEST(TraceTest, ObjectsRenderAsSeparateTrackGroups) {
  TraceRecorder TR;
  TR.setObjectName(0, "alpha");
  TR.setObjectName(1, "beta");
  Action A = Action::call(3, name("m"), {});
  A.Obj = 0;
  Action B = Action::call(3, name("m"), {});
  B.Obj = 1;
  Action ARet = Action::ret(3, name("m"), Value(true));
  ARet.Obj = 0;
  Action BRet = Action::ret(3, name("m"), Value(true));
  BRet.Obj = 1;
  feed(TR, {A, B, ARet, BRet});
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  // Object N renders as pid N + 1, each named after its registration.
  EXPECT_NE(J.find("\"pid\":1,\"args\":{\"name\":\"object: alpha\"}"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"pid\":2,\"args\":{\"name\":\"object: beta\"}"),
            std::string::npos)
      << J;
  // The same thread appears once per object group it touched.
  EXPECT_NE(J.find("\"ph\":\"B\",\"pid\":1,\"tid\":3"), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"B\",\"pid\":2,\"tid\":3"), std::string::npos);
}

TEST(TraceTest, SingleObjectLayoutKeepsLegacyPid) {
  // Anonymous single-object traces must render exactly as before the
  // multi-object engine: everything on pid 1, named "vyrd pipeline".
  TraceRecorder TR;
  feed(TR, {Action::call(0, name("m"), {}),
            Action::ret(0, name("m"), Value())});
  TR.noteVerifierInstant(2, "violation: x");
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"name\":\"vyrd pipeline\""), std::string::npos) << J;
  EXPECT_EQ(J.find("\"pid\":2"), std::string::npos) << J;
}

TEST(TraceTest, UnbalancedSpansCloseInTheirOwnGroup) {
  TraceRecorder TR;
  Action A = Action::call(5, name("left.open"), {});
  A.Obj = 2; // open call on object 2 never returns
  feed(TR, {A});
  std::string J = TR.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  // The auto-close 'E' event must land on object 2's pid (3), tid 5.
  EXPECT_NE(J.find("\"ph\":\"E\",\"pid\":3,\"tid\":5"), std::string::npos)
      << J;
}
