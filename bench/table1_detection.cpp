//===- table1_detection.cpp - Reproduces Table 1 ---------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 1, "Time to detection of error": for each of the six (program,
// injected bug) pairs and a range of thread counts, the average number of
// methods the checker processes before the first violation is reported,
// under view refinement and under I/O refinement, plus the ratio of CPU
// time for view-mode checking vs I/O-mode checking of the same trace.
//
// Expected shape (paper): view refinement detects one to two orders of
// magnitude earlier for bugs that corrupt state (Multiset, StringBuffer,
// BLinkTree, Cache); for the Vector bug — an observer-only error — view
// refinement is no better than I/O refinement. View-mode CPU cost is a
// small multiple of I/O-mode cost.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <vector>

using namespace vyrd;
using namespace vyrd::harness;
using namespace vyrd::bench;

namespace {

struct DetectionResult {
  double AvgMethods = 0; // methods checked before first violation
  unsigned Detected = 0; // out of Repeats
};

/// Repeatedly runs the buggy program online in \p Mode; averages the
/// methods-checked-at-first-violation metric.
DetectionResult detectionRuns(Program P, RunMode Mode, unsigned Threads,
                              unsigned Repeats, unsigned OpsPerThread) {
  DetectionResult R;
  double Sum = 0;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    ScenarioOptions SO;
    SO.Prog = P;
    SO.Mode = Mode;
    SO.Buggy = true;
    SO.StopAtFirstViolation = true;
    WorkloadOptions WO;
    WO.Threads = Threads;
    WO.OpsPerThread = OpsPerThread;
    WO.KeyPoolSize = 16;
    WO.Seed = 1000 + Rep * 77;
    auto [WRes, Rep2] = runScenario(SO, WO, /*StopOnViolation=*/true,
                                    /*Background=*/true,
                                    /*WithChaos=*/true);
    (void)WRes;
    if (!Rep2.ok()) {
      Sum += static_cast<double>(Rep2.Violations.front().MethodsChecked);
      ++R.Detected;
    }
  }
  if (R.Detected)
    R.AvgMethods = Sum / R.Detected;
  return R;
}

/// CPU-time ratio of view-mode vs I/O-mode checking of the same recorded
/// trace (the last column of Table 1), each a from-zero epochCheck of the
/// log file.
double cpuRatioOnSameTrace(Program P, unsigned Threads,
                           unsigned OpsPerThread) {
  // Record one buggy trace at view-logging granularity.
  std::string Path = "/tmp/vyrd-t1-" + std::to_string(getpid()) + ".bin";
  {
    ScenarioOptions SO;
    SO.Prog = P;
    SO.Mode = RunMode::RM_LogOnlyView;
    SO.Buggy = true;
    SO.LogPath = Path;
    WorkloadOptions WO;
    WO.Threads = Threads;
    WO.OpsPerThread = OpsPerThread;
    WO.KeyPoolSize = 16;
    WO.Seed = 4242;
    runScenario(SO, WO, false, /*Background=*/true, /*WithChaos=*/true);
  }
  auto CheckTime = [&](CheckMode Mode) {
    EpochCheckOptions EO;
    EO.Checker.Mode = Mode;
    EO.UseSnapshots = false;
    bool ViewLevel = Mode == CheckMode::CM_ViewRefinement;
    Timed T = timed([&] {
      (void)epochCheck(Path, 1, makeProgramPipeline(P, ViewLevel), EO);
    });
    return T.Cpu > 0 ? T.Cpu : T.Wall;
  };
  double IO = CheckTime(CheckMode::CM_IORefinement);
  double View = CheckTime(CheckMode::CM_ViewRefinement);
  std::remove(Path.c_str());
  return IO > 0 ? View / IO : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  BenchJson BJ("table1_detection", Args.JsonPath);
  std::printf("Table 1: time to detection of error\n");
  std::printf("(average number of methods checked before the first "
              "violation; smaller = earlier)\n\n");
  std::printf("%-22s %-38s %5s %10s %10s %8s\n", "Program", "Error",
              "Thrd", "I/O Ref.", "View Ref.", "CPU V/IO");
  hr();

  const unsigned Repeats = Args.Quick ? 1 : 3;
  std::vector<Program> Rows;
  if (Args.Quick) {
    Rows = {Program::P_MultisetVector};
  } else {
    Rows = allPrograms();
    for (Program P : extensionPrograms())
      Rows.push_back(P); // beyond-paper rows, labeled by programName
  }
  for (Program P : Rows) {
    std::vector<unsigned> ThreadCounts =
        Args.Quick ? std::vector<unsigned>{4}
                   : std::vector<unsigned>{4, 8, 16, 32};
    double Ratio = cpuRatioOnSameTrace(P, 8, Args.Quick ? 50 : 200);
    bool First = true;
    for (unsigned T : ThreadCounts) {
      // Budgets hold the *total* method count constant across thread
      // counts; I/O refinement gets a larger budget since it needs the
      // corruption to surface in a return value.
      DetectionResult View = detectionRuns(P, RunMode::RM_OnlineView, T,
                                           Repeats, 3200 / T);
      DetectionResult IO = detectionRuns(P, RunMode::RM_OnlineIO, T,
                                         Repeats, 12000 / T);
      char IOBuf[32], ViewBuf[32];
      if (IO.Detected)
        std::snprintf(IOBuf, sizeof(IOBuf), "%.0f(%u/%u)", IO.AvgMethods,
                      IO.Detected, Repeats);
      else
        std::snprintf(IOBuf, sizeof(IOBuf), "n.d.");
      if (View.Detected)
        std::snprintf(ViewBuf, sizeof(ViewBuf), "%.0f(%u/%u)",
                      View.AvgMethods, View.Detected, Repeats);
      else
        std::snprintf(ViewBuf, sizeof(ViewBuf), "n.d.");
      std::printf("%-22s %-38s %5u %10s %10s",
                  First ? programName(P) : "",
                  First ? programBugName(P) : "", T, IOBuf, ViewBuf);
      if (First)
        std::printf(" %8.2f", Ratio);
      std::printf("\n");
      First = false;
      for (auto [Mode, R] : {std::pair{"view", View}, {"io", IO}}) {
        char Extra[160];
        std::snprintf(Extra, sizeof(Extra),
                      "{\"avg_methods_to_detection\":%.1f,\"detected\":%u,"
                      "\"repeats\":%u,\"cpu_ratio_view_io\":%.2f}",
                      R.AvgMethods, R.Detected, Repeats, Ratio);
        BJ.row(std::string(programName(P)) + "-" + Mode, T, 0, 0, Extra);
      }
    }
    hr();
  }
  std::printf("\nn.d. = not detected within the run budget; (d/r) = "
              "detected in d of r repetitions.\n");
  std::printf("Expected shape: View << I/O for state-corrupting bugs; "
              "View == I/O for the Vector\nobserver-only bug (Sec. 7.5); "
              "CPU ratio a small constant (paper: 1.0-3.5, one\noutlier "
              "16.9 for Cache).\n");
  return BJ.write() ? 0 : 1;
}
