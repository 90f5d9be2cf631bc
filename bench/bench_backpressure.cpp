//===- bench_backpressure.cpp - Bounded-pipeline soak and policy curves ----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what the bounded pipeline (docs/ARCHITECTURE.md, "Bounded
// pipeline & backpressure") costs and verifies what it promises, with a
// deliberately throttled checker so producers genuinely outrun it:
//
//  * unbounded baseline: append throughput with the historical unbounded
//    queue (memory grows with the backlog);
//  * BP_Block soak: append throughput plus the p99 append latency once
//    the producer absorbs the checker's pace, and the hard invariant
//    pending-HWM <= MaxPendingRecords;
//  * BP_SpillToDisk soak over a segmented file log: spill volume, and the
//    hard invariant that checked-prefix reclamation keeps at most two
//    segments live at the end of the run;
//  * BP_Shed curve: shed rate as the checker gets 1x/2x/4x slower, with
//    exact record accounting and the promise that seeded violations are
//    still flagged (mutators are never shed).
//
// Full mode soaks >= 10M records per bounded policy; --quick shrinks
// everything for CI. Invariant failures exit non-zero so CI notices.
// JSON rows (--json) feed tools/check_bench_baseline.py.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "vyrd/Log.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Verifier.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace vyrd;
using namespace vyrd::bench;

namespace {

unsigned SoakExecs = 2000000;   // 5 records each: the >= 10M-record soak
unsigned CompareExecs = 100000; // unbounded-vs-bounded verdict comparison
unsigned ShedExecs = 200000;    // per point of the shed curve
constexpr unsigned SeededViolations = 3;
constexpr uint64_t PendingBound = 1024;

void spinFor(std::chrono::nanoseconds D) {
  auto Until = std::chrono::steady_clock::now() + D;
  while (std::chrono::steady_clock::now() < Until)
    ;
}

/// Integer register: Set(x) -> true mutates, Get() -> x observes. The
/// optional busy-wait per spec step is the "slow checker" of the soak.
class ThrottledRegisterSpec : public Spec {
public:
  explicit ThrottledRegisterSpec(unsigned ThrottleUs = 0)
      : SetM(internName("bp.Set")), GetM(internName("bp.Get")),
        State(Value(0)), ThrottleUs(ThrottleUs) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    throttle();
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() || !Ret.asBool())
      return false;
    State = Args[0];
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    throttle();
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override { Out.clear(); }

  Name SetM, GetM;
  Value State;

private:
  void throttle() const {
    if (ThrottleUs)
      spinFor(std::chrono::microseconds(ThrottleUs));
  }
  unsigned ThrottleUs;
};

struct RunResult {
  VerifierReport Report;
  double AppendSeconds = 0; // producer wall time in the append loop
  double WallSeconds = 0;   // start() .. finish()
  uint64_t Records = 0;
  uint64_t P99AppendNs = 0; // sampled individual-append p99
};

/// Drives \p Execs Set/Get executions through a fresh Verifier, seeding
/// SeededViolations impossible mutators at even spacings. Every 8th
/// append is individually timed for the latency distribution.
RunResult run(VerifierConfig C, unsigned ThrottleUs, unsigned Execs) {
  using Clock = std::chrono::steady_clock;
  RunResult R;
  ThrottledRegisterSpec Script; // producer-side method names
  Verifier V(std::make_unique<ThrottledRegisterSpec>(ThrottleUs), nullptr,
             std::move(C));
  double W0 = wallSeconds();
  V.start();
  LogWriter &W = V.log().writer();
  std::vector<uint64_t> Samples;
  Samples.reserve(Execs / 2 + 16);
  unsigned SeedEvery = Execs / (SeededViolations + 1);
  uint64_t Appended = 0;
  auto timedAppend = [&](Action A) {
    if (++Appended % 8) {
      W.append(std::move(A));
      return;
    }
    auto T0 = Clock::now();
    W.append(std::move(A));
    Samples.push_back(static_cast<uint64_t>(
        std::chrono::nanoseconds(Clock::now() - T0).count()));
  };
  double A0 = wallSeconds();
  for (unsigned I = 0; I < Execs; ++I) {
    int64_t K = static_cast<int64_t>(I);
    timedAppend(Action::call(1, Script.SetM, {Value(K)}));
    timedAppend(Action::commit(1));
    timedAppend(Action::ret(1, Script.SetM, Value(true)));
    timedAppend(Action::call(1, Script.GetM, {}));
    timedAppend(Action::ret(1, Script.GetM, Value(K)));
    if (SeedEvery && (I + 1) % SeedEvery == 0 &&
        (I + 1) / SeedEvery <= SeededViolations) {
      // A mutator the spec cannot execute: Set that "returns" false. It
      // leaves the register state untouched, so later Gets stay correct.
      timedAppend(Action::call(1, Script.SetM, {Value(-1)}));
      timedAppend(Action::commit(1));
      timedAppend(Action::ret(1, Script.SetM, Value(false)));
    }
  }
  R.AppendSeconds = wallSeconds() - A0;
  R.Records = Appended;
  R.Report = V.finish();
  R.WallSeconds = wallSeconds() - W0;
  if (!Samples.empty()) {
    std::sort(Samples.begin(), Samples.end());
    R.P99AppendNs = Samples[Samples.size() * 99 / 100];
  }
  return R;
}

/// Hard invariant: print and exit non-zero on failure, so the soak gates
/// CI rather than decorating it.
void require(bool Ok, const char *What) {
  if (Ok)
    return;
  std::fprintf(stderr, "INVARIANT FAILED: %s\n", What);
  std::exit(1);
}

void requireSeededViolations(const VerifierReport &R, const char *Config) {
  if (R.Violations.size() == SeededViolations &&
      std::all_of(R.Violations.begin(), R.Violations.end(),
                  [](const Violation &V) {
                    return V.Kind == ViolationKind::VK_MutatorMismatch;
                  }))
    return;
  std::fprintf(stderr,
               "INVARIANT FAILED: %s flagged %zu violation(s), expected "
               "%u seeded mutator mismatches\n%s",
               Config, R.Violations.size(), SeededViolations,
               R.str().c_str());
  std::exit(1);
}

double appendPerSec(const RunResult &R) {
  return R.AppendSeconds > 0 ? double(R.Records) / R.AppendSeconds : 0;
}

double nsPerAppend(const RunResult &R) {
  return R.Records ? R.AppendSeconds * 1e9 / double(R.Records) : 0;
}

std::string tmpBase() {
  return "/tmp/vyrd-benchbp-" + std::to_string(getpid()) + ".bin";
}

void removeChain(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 4096; ++I)
    std::remove(logSegmentPath(Base, I).c_str());
}

VerifierConfig baseConfig() {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  if (Args.Quick) {
    SoakExecs = 30000;
    CompareExecs = 10000;
    ShedExecs = 10000;
  }
  BenchJson BJ("backpressure", Args.JsonPath);
  char Extra[160];

  std::printf("Bounded-pipeline soak: %u execs (%u records) per policy, "
              "1us/step checker throttle, bound %llu records\n\n",
              SoakExecs, SoakExecs * 5 + SeededViolations * 3,
              static_cast<unsigned long long>(PendingBound));
  std::printf("%-12s %12s %12s %12s %12s\n", "config", "append M/s",
              "p99 ns", "pending HWM", "wall s");
  hr();

  // Unbounded baseline at a memory-safe size: the backlog this
  // configuration pins is exactly what the bounded policies exist to
  // avoid, so it does not get the full soak.
  RunResult Unbounded = run(baseConfig(), /*ThrottleUs=*/1, CompareExecs);
  requireSeededViolations(Unbounded.Report, "unbounded");
  std::printf("%-12s %12.2f %12llu %12s %12.2f\n", "unbounded",
              appendPerSec(Unbounded) / 1e6,
              static_cast<unsigned long long>(Unbounded.P99AppendNs), "-",
              Unbounded.WallSeconds);
  std::snprintf(Extra, sizeof(Extra), "{\"records\":%llu}",
                static_cast<unsigned long long>(Unbounded.Records));
  BJ.row("unbounded", 1, nsPerAppend(Unbounded), appendPerSec(Unbounded),
         Extra);

  // BP_Block soak: the producer is paced to the checker; pending stays
  // under the bound by construction, and we verify it did.
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, SoakExecs);
    requireSeededViolations(R.Report, "block");
    require(R.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "block: pending HWM exceeded MaxPendingRecords");
    require(R.Report.Backpressure.BlockedAppends > 0,
            "block: a throttled checker never engaged the bound");
    std::printf("%-12s %12.2f %12llu %12llu %12.2f\n", "block",
                appendPerSec(R) / 1e6,
                static_cast<unsigned long long>(R.P99AppendNs),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.PendingRecordsHwm),
                R.WallSeconds);
    std::snprintf(
        Extra, sizeof(Extra),
        "{\"blocked_appends\":%llu,\"blocked_p99_ns\":%llu,"
        "\"pending_hwm\":%llu}",
        static_cast<unsigned long long>(R.Report.Backpressure.BlockedAppends),
        static_cast<unsigned long long>(R.P99AppendNs),
        static_cast<unsigned long long>(
            R.Report.Backpressure.PendingRecordsHwm));
    BJ.row("block", 1, nsPerAppend(R), appendPerSec(R), Extra);
  }

  // BP_SpillToDisk soak over a segmented chain: appends never block, the
  // reader catches up from disk, and reclamation bounds the disk too.
  {
    std::string Base = tmpBase();
    removeChain(Base);
    VerifierConfig C = baseConfig();
    C.LogFilePath = Base;
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    C.Backpressure.Policy = BackpressurePolicy::BP_SpillToDisk;
    C.Backpressure.SegmentBytes = 1 << 20;
    C.Backpressure.ReclaimSegments = true;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, SoakExecs);
    requireSeededViolations(R.Report, "spill");
    require(R.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "spill: pending HWM exceeded MaxPendingRecords");
    require(R.Report.Backpressure.SegmentsCreated -
                    R.Report.Backpressure.SegmentsReclaimed <=
                2,
            "spill: more than two segments left live after a fully "
            "checked run");
    removeChain(Base);
    std::printf("%-12s %12.2f %12llu %12llu %12.2f\n", "spill",
                appendPerSec(R) / 1e6,
                static_cast<unsigned long long>(R.P99AppendNs),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.PendingRecordsHwm),
                R.WallSeconds);
    std::snprintf(
        Extra, sizeof(Extra),
        "{\"spilled_records\":%llu,\"segments_created\":%llu,"
        "\"segments_live\":%llu,\"pending_hwm\":%llu}",
        static_cast<unsigned long long>(R.Report.Backpressure.SpilledRecords),
        static_cast<unsigned long long>(
            R.Report.Backpressure.SegmentsCreated),
        static_cast<unsigned long long>(
            R.Report.Backpressure.SegmentsCreated -
            R.Report.Backpressure.SegmentsReclaimed),
        static_cast<unsigned long long>(
            R.Report.Backpressure.PendingRecordsHwm));
    BJ.row("spill", 1, nsPerAppend(R), appendPerSec(R), Extra);
  }
  hr();

  // Bounded-vs-unbounded verdict equivalence at the comparison size:
  // BP_Block must change pacing, never coverage.
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = 64;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, CompareExecs);
    requireSeededViolations(R.Report, "block-compare");
    require(R.Report.Stats.MethodsChecked ==
                Unbounded.Report.Stats.MethodsChecked,
            "block: checked-method count diverged from the unbounded run");
    require(R.Report.LogRecords == Unbounded.Report.LogRecords,
            "block: record count diverged from the unbounded run");
  }

  // BP_Shed curve: shed rate versus checker slowdown. Mutators are never
  // shed, so the seeded violations must survive every point, and
  // MethodsChecked + shed windows must account for every execution.
  std::printf("\nBP_Shed: shed rate vs checker slowdown (%u execs, bound "
              "%u records)\n\n",
              ShedExecs, 64u);
  std::printf("%-12s %12s %12s %14s\n", "throttle", "shed rate", "shed recs",
              "methods checked");
  hr();
  for (unsigned Throttle : {1u, 2u, 4u}) {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = 64;
    C.Backpressure.Policy = BackpressurePolicy::BP_Shed;
    RunResult R = run(std::move(C), Throttle, ShedExecs);
    requireSeededViolations(R.Report, "shed");
    require(R.Report.Backpressure.ShedRecords % 2 == 0,
            "shed: observer executions are two records; sheds must come "
            "in whole windows");
    require(R.Report.Stats.MethodsChecked +
                    R.Report.Backpressure.ShedRecords / 2 ==
                2 * uint64_t(ShedExecs) + SeededViolations,
            "shed: checked + shed executions do not account for every "
            "appended execution");
    double Rate = double(R.Report.Backpressure.ShedRecords) /
                  double(R.Records ? R.Records : 1);
    char Label[16];
    std::snprintf(Label, sizeof(Label), "x%u", Throttle);
    std::printf("%-12s %12.4f %12llu %14llu\n", Label, Rate,
                static_cast<unsigned long long>(
                    R.Report.Backpressure.ShedRecords),
                static_cast<unsigned long long>(
                    R.Report.Stats.MethodsChecked));
    char Config[32];
    std::snprintf(Config, sizeof(Config), "shed-x%u", Throttle);
    std::snprintf(
        Extra, sizeof(Extra), "{\"shed_rate\":%.6f,\"shed_records\":%llu}",
        Rate,
        static_cast<unsigned long long>(R.Report.Backpressure.ShedRecords));
    BJ.row(Config, 1, nsPerAppend(R), appendPerSec(R), Extra);
  }
  hr();

  // Self-tuning pipeline: the adaptive pump batch against the historical
  // fixed 256-record batch, same bounded-block soak. The steady-state
  // records/s is checker-paced, so the robust signal is the sync cost:
  // the adaptive target grows past the bound and drains the whole queue
  // per lock round trip, so the producer blocks and wakes a fraction as
  // often. check_bench_baseline.py gates both rows.
  std::printf("\nAdaptive batch sizing vs fixed-256 (%u execs, 1us/step "
              "throttle, bound %llu)\n\n",
              SoakExecs, static_cast<unsigned long long>(PendingBound));
  std::printf("%-12s %12s %12s %12s %14s\n", "config", "append M/s",
              "p99 ns", "pending HWM", "blocked appends");
  hr();
  RunResult Fixed, Adaptive;
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    Fixed = run(std::move(C), /*ThrottleUs=*/1, SoakExecs);
    requireSeededViolations(Fixed.Report, "fixed-256");
    require(Fixed.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "fixed-256: pending HWM exceeded MaxPendingRecords");
  }
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    C.Adaptive.Enabled = true;
    // Grow as soon as the backlog covers half the bound; the default
    // watermark (1024) would sit exactly on the bound and only
    // trigger on the racy full-queue instants.
    C.Adaptive.GrowLagRecords = PendingBound / 2;
    Adaptive = run(std::move(C), /*ThrottleUs=*/1, SoakExecs);
    requireSeededViolations(Adaptive.Report, "adaptive-on");
    require(Adaptive.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "adaptive-on: pending HWM exceeded MaxPendingRecords");
    require(Adaptive.Report.Adaptive.BatchTargetHwm >
                Adaptive.Report.Adaptive.BatchTargetFinal ||
            Adaptive.Report.Adaptive.BatchTargetHwm > 256,
            "adaptive-on: the batch target never grew under a "
            "backlogged checker");
    require(Adaptive.Report.Backpressure.BlockedAppends <
                Fixed.Report.Backpressure.BlockedAppends,
            "adaptive-on: larger drain batches must block the producer "
            "less often than fixed-256");
  }
  for (const auto &P : {std::make_pair("fixed-256", &Fixed),
                        std::make_pair("adaptive-on", &Adaptive)}) {
    const RunResult &R = *P.second;
    std::printf("%-12s %12.2f %12llu %12llu %14llu\n", P.first,
                appendPerSec(R) / 1e6,
                static_cast<unsigned long long>(R.P99AppendNs),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.PendingRecordsHwm),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.BlockedAppends));
    char Buf[224];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"blocked_appends\":%llu,\"blocked_p99_ns\":%llu,"
        "\"pending_hwm\":%llu,\"batch_target_hwm\":%llu}",
        static_cast<unsigned long long>(
            R.Report.Backpressure.BlockedAppends),
        static_cast<unsigned long long>(R.P99AppendNs),
        static_cast<unsigned long long>(
            R.Report.Backpressure.PendingRecordsHwm),
        static_cast<unsigned long long>(R.Report.Adaptive.BatchTargetHwm));
    BJ.row(P.first, 1, nsPerAppend(R), appendPerSec(R), Buf);
  }
  std::printf("\n  adaptive/fixed records/s ratio: %.3f, blocked-append "
              "reduction: %.1fx\n",
              appendPerSec(Adaptive) / appendPerSec(Fixed),
              double(Fixed.Report.Backpressure.BlockedAppends) /
                  double(std::max<uint64_t>(
                      Adaptive.Report.Backpressure.BlockedAppends, 1)));
  hr();

  // Escalation soak: a file-backed run whose burst phase holds the lag
  // over the escalate watermark long enough to walk the whole ladder
  // (block -> spill -> shed), then a trickle phase lets the checker
  // drain and the ladder walk back down. The transition accounting in
  // the final report must show exactly that sequence.
  {
    std::printf("\nEscalation soak (burst + drain, file-backed, bound "
                "512)\n\n");
    std::string Base = tmpBase() + ".esc";
    removeChain(Base);
    unsigned BurstExecs = SoakExecs / 10;
    VerifierConfig C = baseConfig();
    C.LogFilePath = Base;
    C.Telemetry.Enabled = true; // the soak polls the live policy gauge
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = 512;
    C.Backpressure.SegmentBytes = 1 << 20;
    C.Backpressure.ReclaimSegments = true;
    C.Adaptive.Enabled = true;
    C.Adaptive.EscalatePolicy = true;
    C.Adaptive.EscalateLagHi = 400; // below the bound: block caps the lag
    C.Adaptive.DeescalateLagLo = 64;
    C.Adaptive.EscalateHoldUs = 300;
    C.Adaptive.DeescalateHoldUs = 1000;
    ThrottledRegisterSpec Script;
    Verifier V(std::make_unique<ThrottledRegisterSpec>(/*ThrottleUs=*/2),
               nullptr, std::move(C));
    V.start();
    LogWriter &W = V.log().writer();
    unsigned SeedEvery = BurstExecs / (SeededViolations + 1);
    for (unsigned I = 0; I < BurstExecs; ++I) {
      int64_t K = static_cast<int64_t>(I);
      W.append(Action::call(1, Script.SetM, {Value(K)}));
      W.append(Action::commit(1));
      W.append(Action::ret(1, Script.SetM, Value(true)));
      W.append(Action::call(1, Script.GetM, {}));
      W.append(Action::ret(1, Script.GetM, Value(K)));
      if (SeedEvery && (I + 1) % SeedEvery == 0 &&
          (I + 1) / SeedEvery <= SeededViolations) {
        W.append(Action::call(1, Script.SetM, {Value(-1)}));
        W.append(Action::commit(1));
        W.append(Action::ret(1, Script.SetM, Value(false)));
      }
    }
    // Trickle: keep the pump observing (it only decides between batches)
    // while the checker drains the burst backlog; lag falls through the
    // low watermark and the ladder de-escalates back to block.
    auto PolicyNow = [&] {
      return V.telemetry()->snapshot().gauge(Gauge::G_PolicyActive);
    };
    double Deadline = wallSeconds() + 120;
    int64_t K = BurstExecs;
    while (PolicyNow() !=
               static_cast<uint64_t>(BackpressurePolicy::BP_Block) &&
           wallSeconds() < Deadline) {
      W.append(Action::call(1, Script.GetM, {}));
      W.append(Action::ret(1, Script.GetM, Value(K - 1)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    VerifierReport R = V.finish();
    removeChain(Base);
    requireSeededViolations(R, "escalation-soak");
    require(R.Adaptive.Enabled, "escalation-soak: adaptive summary missing");
    const std::vector<AdaptiveController::Transition> &T =
        R.Adaptive.Transitions;
    std::string Seq;
    for (size_t I = 0; I < T.size(); ++I)
      Seq += (I ? "," : "") + T[I].str();
    std::printf("  transitions: %s\n  final policy: %s\n",
                Seq.c_str(), R.Adaptive.FinalPolicy.c_str());
    require(Seq == "block->spill,spill->shed,shed->spill,spill->block",
            "escalation-soak: expected the exact ladder walk "
            "block->spill->shed and back");
    require(R.Adaptive.Escalations == 2 && R.Adaptive.Deescalations == 2,
            "escalation-soak: escalation counters disagree with the "
            "transition list");
    require(R.Adaptive.FinalPolicy == "block",
            "escalation-soak: did not de-escalate back to the base "
            "policy after the drain");
    std::string Extras = "{\"escalations\":" +
                         std::to_string(R.Adaptive.Escalations) +
                         ",\"deescalations\":" +
                         std::to_string(R.Adaptive.Deescalations) +
                         ",\"sequence\":\"" + Seq + "\",\"final_policy\":\"" +
                         R.Adaptive.FinalPolicy + "\",\"shed_records\":" +
                         std::to_string(R.Backpressure.ShedRecords) + "}";
    BJ.row("escalation-soak", 1, 0.0, 0.0, Extras);
  }
  hr();
  std::printf("\nall bounded-pipeline invariants held\n");
  return BJ.write() ? 0 : 1;
}
