//===- table3_breakdown.cpp - Reproduces Table 3 ---------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 3, "Running time breakdown": for the four programs the paper
// reports (Vector 20/200, StringBuffer 10/30, BLinkTree 10/600, Cache
// 10/500 — threads / methods per thread, scaled up here so the bare runs
// are measurable), the CPU time of:
//   1. the program alone,
//   2. the program + logging (no checking),
//   3. the program + logging + online VYRD (view refinement), and
//   4. VYRD alone: epochCheck over the log file run 2 recorded, decoding
//      it from record 0 as the paper's post-mortem pass does.
//
// The offline run also collects the checker-internal split the paper
// discusses alongside Table 3: how much of the checking time goes to
// replaying writes into viewI, driving the specification, and comparing
// the two views (CheckerStats::{Replay,Spec,ViewCompare}Nanos, gated by
// CheckerConfig::CollectTimings).
//
// Expected shape (paper): logging adds a modest overhead; online checking
// costs a few times the bare program; offline checking alone is in the
// same ballpark as (3) minus the program.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vyrd;
using namespace vyrd::harness;
using namespace vyrd::bench;

namespace {

struct Row {
  Program Prog;
  unsigned Threads;
  unsigned Ops; // per thread (scaled from the paper's counts)
};

double cpuOf(const std::function<void()> &Fn) {
  Timed T = timed(Fn);
  return T.Cpu > 0 ? T.Cpu : T.Wall;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  BenchJson BJ("table3_breakdown", Args.JsonPath);
  std::printf("Table 3: running time breakdown (CPU seconds)\n\n");
  std::printf("%-22s %12s %8s %14s %18s %16s\n", "Program", "#Thrd/#Mthd",
              "alone", "prog+logging", "prog+log+VYRD", "VYRD (offline)");
  hr();

  // The paper's thread/method shapes, methods-per-thread scaled x20 so
  // the bare runs take a measurable fraction of a second.
  std::vector<Row> Rows = {
      {Program::P_Vector, 20, 200 * 40},
      {Program::P_StringBuffer, 10, 30 * 100},
      {Program::P_BLinkTree, 10, 600 * 10},
      {Program::P_Cache, 10, 500 * 20},
  };
  if (Args.Quick)
    Rows = {{Program::P_Vector, 4, 400}};

  struct Breakdown {
    const char *Prog;
    CheckerStats Stats;
  };
  std::vector<Breakdown> Breakdowns;

  for (const Row &R : Rows) {
    WorkloadOptions WO;
    WO.Threads = R.Threads;
    WO.OpsPerThread = R.Ops;
    WO.KeyPoolSize = 24;
    WO.Seed = 5;

    // 1. Program alone.
    double Alone = cpuOf([&] {
      ScenarioOptions SO;
      SO.Prog = R.Prog;
      SO.Mode = RunMode::RM_Bare;
      runScenario(SO, WO, false);
    });

    // 2. Program + logging (view granularity, to a file).
    std::string Path = "/tmp/vyrd-t3-" + std::to_string(getpid()) + ".bin";
    double Logging = cpuOf([&] {
      ScenarioOptions SO;
      SO.Prog = R.Prog;
      SO.Mode = RunMode::RM_LogOnlyView;
      SO.LogPath = Path;
      runScenario(SO, WO, false);
    });

    // 3. Program + logging + online VYRD.
    double Online = cpuOf([&] {
      ScenarioOptions SO;
      SO.Prog = R.Prog;
      SO.Mode = RunMode::RM_OnlineView;
      runScenario(SO, WO, false);
    });

    // 4. VYRD alone: from-zero check of the recorded file, with the
    // checker-internal timing split enabled.
    VerifierReport OffRep;
    double Offline = cpuOf([&] {
      EpochCheckOptions EO;
      EO.Checker.CollectTimings = true;
      EO.UseSnapshots = false;
      OffRep = epochCheck(Path, 1, makeProgramPipeline(R.Prog, true), EO)
                   .Report;
    });
    std::remove(Path.c_str());
    Breakdowns.push_back({programName(R.Prog), OffRep.Stats});

    char Shape[32];
    std::snprintf(Shape, sizeof(Shape), "%u/%u", R.Threads, R.Ops);
    std::printf("%-22s %12s %8.3f %14.3f %18.3f %16.3f\n",
                programName(R.Prog), Shape, Alone, Logging, Online,
                Offline);

    const std::pair<const char *, double> Cfgs[] = {
        {"alone", Alone},
        {"logging", Logging},
        {"online", Online},
        {"offline", Offline},
    };
    double TotalOps = double(R.Threads) * R.Ops;
    for (auto [Cfg, Secs] : Cfgs) {
      char Extra[192];
      if (std::string(Cfg) == "offline")
        std::snprintf(Extra, sizeof(Extra),
                      "{\"cpu_s\":%.4f,\"replay_ns\":%llu,\"spec_ns\":%llu,"
                      "\"view_compare_ns\":%llu}",
                      Secs,
                      static_cast<unsigned long long>(OffRep.Stats.ReplayNanos),
                      static_cast<unsigned long long>(OffRep.Stats.SpecNanos),
                      static_cast<unsigned long long>(
                          OffRep.Stats.ViewCompareNanos));
      else
        std::snprintf(Extra, sizeof(Extra), "{\"cpu_s\":%.4f}", Secs);
      BJ.row(std::string(programName(R.Prog)) + "-" + Cfg, R.Threads,
             TotalOps > 0 ? Secs * 1e9 / TotalOps : 0,
             Secs > 0 ? TotalOps / Secs : 0, Extra);
    }
  }
  hr();

  std::printf("\nChecker-internal split of the offline run (seconds; "
              "CheckerStats timing fields):\n\n");
  std::printf("%-22s %10s %12s %14s\n", "Program", "replay",
              "drive spec", "view compare");
  hr();
  for (const auto &B : Breakdowns) {
    double Replay = double(B.Stats.ReplayNanos) * 1e-9;
    double Spec = double(B.Stats.SpecNanos) * 1e-9;
    double Compare = double(B.Stats.ViewCompareNanos) * 1e-9;
    std::printf("%-22s %10.3f %12.3f %14.3f\n", B.Prog, Replay, Spec,
                Compare);
  }
  hr();
  std::printf("\nExpected shape (paper Table 3): logging is a modest "
              "addition over the bare run;\nprogram+logging+VYRD is a "
              "small multiple of the bare program; offline checking\n"
              "alone is comparable to the online checking cost. Within "
              "the checker, replay\nand spec-driving dominate while the "
              "incremental hash comparison stays cheap\n(Sec. 6.4).\n");
  return BJ.write() ? 0 : 1;
}
