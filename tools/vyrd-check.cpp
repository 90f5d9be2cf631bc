//===- vyrd-check.cpp - Offline refinement check of a recorded log ---------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks a recorded log (a plain file or a segment chain) against one of
// the bundled program specifications after the run: post-mortem
// verification, the "VYRD alone" mode of Table 3. Every mode is one
// epochCheck call over the file's original records.
//
//   vyrd-check <log-file> --program <name> [--mode io|view]
//              [--max-violations N] [--audit N] [--quiescent]
//              [--context N]   (attach the last N records to violations)
//              [--resume]      (cold restart from the snapshot sidecar of
//                               the oldest live segment, docs/SNAPSHOTS.md)
//              [--epochs N]    (split each object's stream at snapshot
//                               sidecars and check the epochs on N threads)
//
// Without --resume or --epochs the check starts from record 0 and ignores
// sidecars, so it needs the whole chain. Program names: multiset, bst,
// vector, stringbuffer, blinktree, cache, scanfs, hashtable, queue — plus
// "composite" (the four-object harness scenario). Exit code: 0 clean, 1
// violations found, 2 usage/IO error.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "vyrd/Epoch.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <log-file> --program multiset|bst|vector|stringbuffer|"
      "blinktree|cache|scanfs|hashtable|queue|composite\n"
      "          [--mode io|view] [--max-violations N] [--audit N] "
      "[--quiescent] [--context N]\n"
      "          [--resume] [--epochs N]\n",
      Argv0);
  return 2;
}

/// Parses a non-negative decimal count; rejects signs, junk and overflow.
bool parseCount(const char *S, long &Out) {
  if (*S < '0' || *S > '9')
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtol(S, &End, 10);
  return *End == '\0' && errno == 0;
}

bool parseProgram(const std::string &S, Program &Out) {
  if (S == "multiset")
    Out = Program::P_MultisetVector;
  else if (S == "bst")
    Out = Program::P_MultisetBst;
  else if (S == "vector")
    Out = Program::P_Vector;
  else if (S == "stringbuffer")
    Out = Program::P_StringBuffer;
  else if (S == "blinktree")
    Out = Program::P_BLinkTree;
  else if (S == "cache")
    Out = Program::P_Cache;
  else if (S == "scanfs")
    Out = Program::P_ScanFs;
  else if (S == "hashtable")
    Out = Program::P_Hashtable;
  else if (S == "queue")
    Out = Program::P_Queue;
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, ProgName, Mode = "view";
  long MaxViolations = 16, Audit = 0, Context = 0, Epochs = 0;
  bool Quiescent = false, Resume = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool Ok = true;
    if (Arg == "--program" && I + 1 < Argc) {
      ProgName = Argv[++I];
    } else if (Arg == "--mode" && I + 1 < Argc) {
      Mode = Argv[++I];
    } else if (Arg == "--max-violations" && I + 1 < Argc) {
      Ok = parseCount(Argv[++I], MaxViolations);
    } else if (Arg == "--audit" && I + 1 < Argc) {
      Ok = parseCount(Argv[++I], Audit);
    } else if (Arg == "--context" && I + 1 < Argc) {
      Ok = parseCount(Argv[++I], Context);
    } else if (Arg == "--quiescent") {
      Quiescent = true;
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg == "--epochs" && I + 1 < Argc) {
      Ok = parseCount(Argv[++I], Epochs);
    } else if (Arg[0] == '-') {
      Ok = false;
    } else {
      Path = Arg;
    }
    if (!Ok)
      return usage(Argv[0]);
  }
  bool Composite = ProgName == "composite";
  Program Prog = Program::P_MultisetVector;
  if (Path.empty() || (!Composite && !parseProgram(ProgName, Prog)) ||
      (Mode != "io" && Mode != "view") || (Resume && Epochs > 0))
    return usage(Argv[0]);

  // From zero (the default) ignores sidecars and checks every object as
  // one epoch from record 0; --resume restores from the front sidecar
  // only (the cold restart); --epochs N additionally splits at every
  // sidecar and checks the (object, epoch) matrix on N threads.
  bool ViewLevel = Mode == "view";
  EpochCheckOptions EO;
  EO.Checker.Mode = ViewLevel ? CheckMode::CM_ViewRefinement
                              : CheckMode::CM_IORefinement;
  EO.Checker.AuditPeriod = static_cast<unsigned>(Audit);
  EO.Checker.QuiescentOnly = Quiescent;
  EO.Checker.ContextRecords = static_cast<unsigned>(Context);
  EO.UseSnapshots = Resume || Epochs > 0;
  EO.ResumeOnly = Resume;
  if (Epochs > 0)
    EO.Threads = static_cast<unsigned>(Epochs);
  size_t NumObjects = Composite ? 4 : 1;
  PipelineFactory Factory = Composite ? makeCompositePipeline(ViewLevel)
                                      : makeProgramPipeline(Prog, ViewLevel);
  EpochReport ER = epochCheck(Path, NumObjects, Factory, EO);
  if (!ER.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", ER.Error.c_str());
    return 2;
  }
  VerifierReport &R = ER.Report;
  if (R.Violations.size() > static_cast<size_t>(MaxViolations))
    R.Violations.resize(static_cast<size_t>(MaxViolations));
  std::printf("%s", R.str().c_str());
  std::printf("epochs: %llu, tasks: %llu, serial rechecks: %llu\n",
              static_cast<unsigned long long>(ER.Epochs),
              static_cast<unsigned long long>(ER.Tasks),
              static_cast<unsigned long long>(ER.SerialRechecks));
  if (Context > 0)
    for (const Violation &V : R.Violations)
      if (!V.Context.empty())
        std::printf("\ncontext of #%llu:\n%s",
                    static_cast<unsigned long long>(V.Seq),
                    V.Context.c_str());
  return R.ok() ? 0 : 1;
}
