//===- verdict_bench.cpp - The verdict benchmark --------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what VYRD's verdict costs, end to end, through the public API
// only (harness scenarios, Log::append, Verifier, epochCheck,
// LogFileReader, RefinementChecker). See README.md in this directory for
// the workloads, the metrics and the layer -> end-to-end map.
//
//   verdict_bench --phase setup   --workload W --seed N --work-dir D
//   verdict_bench --phase measure --workload W --seed N --work-dir D
//                 --seconds S --trace 0|1 [--scale F]
//
// The set-up phase records the workload's inputs into D and prints its
// wall time; run.py runs it several times in fresh processes (so the peak
// RSS of the measure process covers the pipeline, not the recording) and
// then runs the measure phase once. The measure phase prints a ledger to
// stdout and, as its last line, one JSON object with the metrics.
//
// Every operation is one verdict and is checked: clean runs must report
// no violation, an offline epoch re-check must agree with the online
// report object by object, and a detection rep must flag the object and
// record the offline checker found. A failed check counts against the
// attempted operations; it never aborts the run.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Epoch.h"
#include "vyrd/Snapshot.h"
#include "vyrd/Verifier.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace vyrd;
using namespace vyrd::harness;
using namespace verdictbench;

namespace {

//===----------------------------------------------------------------------===//
// Sizes (scale 1). run.py --self-test shrinks them with --scale.
//===----------------------------------------------------------------------===//

/// Application threads of every live run (plus the compression thread).
constexpr unsigned AppThreads = 2;
/// Ops per app thread of one composite-live operation (~0.7 M records).
/// Operations are kept short so a run takes the median of many.
constexpr double LiveOpsPerThread = 60000;
/// Ops per app thread of the recorded composite stream (~1 M records).
constexpr double CompositeStreamOpsPerThread = 90000;
/// Ops per app thread of the recorded queue stream (~1 M I/O records).
constexpr double QueueStreamOpsPerThread = 175000;
/// Segment size of every recorded chain: ~10 segments per live run, so
/// the 4-worker epoch check has several epochs per object.
constexpr double SegmentBytes = 1 << 20;
/// Paced replay rate of the detection reps, records per second. Well
/// below the ~1 M rec/s the single-object view pipeline sustains: at
/// 1 M rec/s a backlog forms in some reps (a second latency mode near
/// 300 us), at 200 k rec/s the latency is the log's and the pump's
/// hand-off and wake-up delay alone.
constexpr double DetectRatePerS = 2e5;
/// Recordings whose decidable record comes earlier are re-recorded: the
/// rep should reach it with the pipeline threads busy, not starting up.
constexpr uint64_t DetectMinJ = 256;
/// Pause between Verifier::start() and a rep's first record, so the rep
/// measures a running pipeline rather than thread creation.
constexpr uint64_t DetectSettleNs = 200000;
/// Buggy recordings per set-up; detection reps cycle through them, so a
/// run's figures do not hinge on one interleaving.
constexpr unsigned DetectStreams = 8;
/// Records replayed past the decidable record before a rep gives up on
/// the stream (it then keeps polling for the verdict).
constexpr uint64_t DetectTail = 4096;
/// Detection reps of the probe a traced run of another workload makes:
/// enough that the p99 has at least ten samples beyond it.
constexpr double ProbeReps = 1000;
/// One sampled span per this many appends / instrumented operations, on
/// average. The choice is random: a fixed stride lines up with the shard
/// ring's capacity, and every sampled append was then a ring-full wait.
constexpr uint64_t AppendSample = 64;
constexpr uint64_t OpSample = 256;

/// Cheap per-thread sampling decision, true with probability 1/\p Every
/// (a power of two).
bool sampleNow(uint64_t Every) {
  thread_local uint64_t X = 0x9e3779b97f4a7c15ULL ^ nowNs();
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return (X & (Every - 1)) == 0;
}

//===----------------------------------------------------------------------===//
// Arguments, small statistics, output
//===----------------------------------------------------------------------===//

struct Args {
  std::string Phase;
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  double Scale = 1;
  std::string WorkDir;
};

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --phase setup|measure --workload W --seed N "
               "--work-dir D [--seconds S] [--trace 0|1] [--scale F]\n",
               Argv0);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage(Argv[0]);
    std::string V = Argv[++I];
    if (K == "--phase")
      A.Phase = V;
    else if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--scale")
      A.Scale = std::atof(V.c_str());
    else if (K == "--work-dir")
      A.WorkDir = V;
    else
      usage(Argv[0]);
  }
  if ((A.Phase != "setup" && A.Phase != "measure") || A.WorkDir.empty() ||
      A.Scale <= 0 || A.Seconds <= 0)
    usage(Argv[0]);
  return A;
}

size_t scaled(double N, double Scale, size_t Min = 1) {
  return std::max(Min, static_cast<size_t>(N * Scale));
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double seconds(uint64_t Ns) { return double(Ns) / 1e9; }

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next peakRssMb() covers one operation. A whole-run peak tracked
/// whichever operation a noisy neighbour slowed most (its backlog grew).
void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// Peak RSS since the last resetPeakRss(), in MB.
double peakRssMb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long Kb = 0;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lu kB", &Kb) == 1)
        break;
    std::fclose(F);
    if (Kb)
      return double(Kb) / 1024.0;
  }
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// Named metrics in emission order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Ms.push_back({Name, Value, Unit});
  }

  void print() const {
    for (const auto &M : Ms)
      std::printf("  %-34s %16.4f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }

  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I < Ms.size(); ++I) {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                                      "\"unit\": \"%s\"}",
                    I ? ", " : "", Ms[I].Name.c_str(),
                    std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0,
                    Ms[I].Unit.c_str());
      S += Buf;
    }
    return S + "}";
  }

private:
  struct M {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<M> Ms;
};

/// Operation accounting: every verdict is attempted once and either
/// passes all of its checks or counts as failed (with its reason).
struct Verdicts {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Prints the verdict summary and the result line (the last line of
  /// the measure phase's output).
  void printResult(const std::string &MetricsJson) const {
    std::printf("verdicts: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                Failed ? "false" : "true",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed), MetricsJson.c_str());
  }

  /// Records one operation; \p Why is empty when every check passed.
  void record(const std::string &Op, const std::string &Why) {
    ++Attempted;
    if (Why.empty())
      return;
    ++Failed;
    if (Failed <= 20)
      std::printf("FAILED %s: %s\n", Op.c_str(), Why.c_str());
  }
};

//===----------------------------------------------------------------------===//
// Streams on disk
//===----------------------------------------------------------------------===//

/// Totals of one recorded stream or chain, from a LogFileReader pass.
struct StreamInfo {
  uint64_t Records = 0;
  uint64_t Bytes = 0;
  std::vector<uint64_t> PerObject;
};

uint64_t fileSize(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return 0;
  std::fseek(F, 0, SEEK_END);
  long N = std::ftell(F);
  std::fclose(F);
  return N > 0 ? static_cast<uint64_t>(N) : 0;
}

/// Encoded log bytes of the stream at \p Base (a plain file or a chain).
uint64_t streamBytes(const std::string &Base) {
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(Base, Segs))
    return fileSize(Base);
  uint64_t N = 0;
  for (const ChainSegment &S : Segs)
    N += fileSize(S.Path);
  return N;
}

/// Deletes every segment and sidecar of the chain (or the plain file).
void removeStream(const std::string &Base) {
  std::vector<ChainSegment> Segs;
  if (enumerateChain(Base, Segs))
    for (const ChainSegment &S : Segs) {
      std::remove(S.Path.c_str());
      if (S.Index)
        std::remove(snapshotSidecarPath(Base, S.Index).c_str());
    }
  std::remove(Base.c_str());
}

bool scanStream(const std::string &Path, StreamInfo &Out) {
  LogFileReader R(Path);
  if (!R.valid())
    return false;
  Out = StreamInfo();
  Action A;
  while (R.next(A)) {
    ++Out.Records;
    if (Out.PerObject.size() <= A.Obj)
      Out.PerObject.resize(A.Obj + 1);
    ++Out.PerObject[A.Obj];
  }
  Out.Bytes = streamBytes(Path);
  return !R.malformed();
}

/// Key/value sidecar the set-up phase leaves for the measure phase.
using Meta = std::map<std::string, std::string>;

bool writeMeta(const std::string &Path, const Meta &M) {
  std::ofstream F(Path, std::ios::trunc);
  for (const auto &[K, V] : M)
    F << K << ' ' << V << '\n';
  return static_cast<bool>(F);
}

bool readMeta(const std::string &Path, Meta &M) {
  std::ifstream F(Path);
  if (!F)
    return false;
  std::string K, V;
  while (F >> K >> V)
    M[K] = V;
  return true;
}

uint64_t metaU64(const Meta &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0 : std::strtoull(It->second.c_str(), nullptr, 10);
}

/// A LogWriter that drops every record: isolates the generator's own
/// decode + copy cost from the pipeline.
class NullWriter final : public LogWriter {
public:
  uint64_t append(Action A) override {
    Sink ^= A.Seq + static_cast<uint64_t>(A.Kind);
    return N++;
  }
  uint64_t N = 0;
  uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// Workload configurations
//===----------------------------------------------------------------------===//

/// The verifier a replay (or a backend cross-check) checks into.
struct ReplayConfig {
  bool Composite = true;
  bool ViewLevel = true;
  unsigned CheckerThreads = 1;
  LogBackend Backend = LogBackend::LB_Buffered;
};

/// composite-replay: view refinement of the four-object composite on a
/// two-worker checker pool.
ReplayConfig compositeReplayConfig() { return {true, true, 2}; }
/// queue-io-replay: I/O refinement of the bounded queue, checked inline.
ReplayConfig queueReplayConfig() { return {false, false, 1}; }
/// multiset-detect: view refinement of the buggy array multiset, inline.
ReplayConfig detectConfig() { return {false, true, 1}; }

PipelineFactory factoryFor(const ReplayConfig &C, bool Multiset) {
  if (C.Composite)
    return makeCompositePipeline(C.ViewLevel);
  return makeProgramPipeline(
      Multiset ? Program::P_MultisetVector : Program::P_Queue, C.ViewLevel);
}

size_t objectsOf(const ReplayConfig &C) { return C.Composite ? 4 : 1; }

void applyTelemetry(VerifierConfig &VC, bool Traced) {
  if (!Traced)
    return;
  VC.Telemetry.Enabled = true;
  VC.Telemetry.SampleIntervalUs = 100; // feeds the checker-lag histogram
  VC.Checker.CollectTimings = true;
}

/// Builds and starts a verifier for \p C with the objects of \p Factory.
std::unique_ptr<Verifier> makeVerifier(const ReplayConfig &C,
                                       const PipelineFactory &Factory,
                                       bool StopAtFirst, bool Traced) {
  VerifierConfig VC;
  VC.Checker.Mode = C.ViewLevel ? CheckMode::CM_ViewRefinement
                                : CheckMode::CM_IORefinement;
  VC.Checker.StopAtFirstViolation = StopAtFirst;
  VC.Backend = C.Backend;
  VC.CheckerThreads = C.CheckerThreads;
  // Bounded at the default ceiling, so a full-speed replay measures the
  // sustained rate rather than the growth of an unbounded backlog.
  VC.Backpressure.Enabled = true;
  applyTelemetry(VC, Traced);
  auto V = std::make_unique<Verifier>(VC);
  for (ObjectId Id = 0; Id < objectsOf(C); ++Id) {
    std::string Name;
    std::unique_ptr<Spec> S;
    std::unique_ptr<Replayer> R;
    Factory(Id, Name, S, R);
    V->registerObject(Name, std::move(S), std::move(R));
  }
  V->start();
  return V;
}

/// The live recipe: the composite program under online view refinement
/// on BufferedLog, writing a segmented chain with snapshot sidecars and
/// reclamation off (composite-live's operation, and the recording of the
/// composite-replay stream).
ScenarioOptions liveOptions(const std::string &Base, bool Traced) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.Buffered = true;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = static_cast<uint64_t>(SegmentBytes);
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  if (Traced) {
    SO.Telemetry.Enabled = true;
    SO.Telemetry.SampleIntervalUs = 100;
    SO.CollectTimings = true;
  }
  return SO;
}

/// Compares an offline epoch report with the online one object by object
/// (record counts and violations). \returns the first difference, or "".
std::string compareReports(const VerifierReport &Online,
                           const EpochReport &Offline, bool CompareCounts) {
  if (!Offline.Error.empty())
    return "epoch check error: " + Offline.Error;
  const auto &A = Online.Objects;
  const auto &B = Offline.Report.Objects;
  if (A.size() != B.size())
    return "object count differs: online " + std::to_string(A.size()) +
           ", epochs " + std::to_string(B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    if (CompareCounts && A[I].Records != B[I].Records)
      return "object " + std::to_string(I) + " records differ: online " +
             std::to_string(A[I].Records) + ", epochs " +
             std::to_string(B[I].Records);
    if (A[I].Violations.empty() != B[I].Violations.empty())
      return "object " + std::to_string(I) + " verdict differs";
  }
  return "";
}

std::string checkCounts(const VerifierReport &R, const StreamInfo &In) {
  if (R.LogRecords != In.Records)
    return "log records " + std::to_string(R.LogRecords) + " != stream " +
           std::to_string(In.Records);
  for (size_t I = 0; I < R.Objects.size(); ++I) {
    uint64_t Want = I < In.PerObject.size() ? In.PerObject[I] : 0;
    if (R.Objects[I].Records != Want)
      return "object " + std::to_string(I) + " checked " +
             std::to_string(R.Objects[I].Records) + " records, stream has " +
             std::to_string(Want);
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// Per-thread op sampler for traced live runs: one call in OpSample of a
/// thread is timed and recorded as a weighted span.
struct OpSampler {
  SpanLog *Spans = nullptr;
  int64_t Parent = -1;
  std::vector<double> *Ns = nullptr;
  std::mutex *M = nullptr;
};

std::function<void(Rng &, int64_t, int64_t, double)>
sampledOp(const std::function<void(Rng &, int64_t, int64_t, double)> &Op,
          const OpSampler &S, const char *Name) {
  if (!S.Ns)
    return Op;
  return [Op, S, Name](Rng &R, int64_t K1, int64_t K2, double P) {
    thread_local uint32_t Lane = 0;
    if (!sampleNow(OpSample)) {
      Op(R, K1, K2, P);
      return;
    }
    if (!Lane)
      Lane = static_cast<uint32_t>(currentTid()) + 1;
    uint64_t T0 = nowNs();
    Op(R, K1, K2, P);
    uint64_t T1 = nowNs();
    S.Spans->add(Name, T0, T1, S.Parent, OpSample, Lane);
    std::lock_guard<std::mutex> G(*S.M);
    S.Ns->push_back(double(T1 - T0));
  };
}

struct LiveOutcome {
  std::string Why;
  VerifierReport R;
  uint64_t Ops = 0;
  double AppS = 0;
  double E2eS = 0;
  double FinishS = 0;
  double RecheckS = 0;
  EpochReport Recheck;
  std::vector<double> OpNs;
};

/// One composite-live operation: the live run, then the x4 epoch re-check
/// of the chain it wrote. The chain stays on disk for the caller.
LiveOutcome liveOp(const std::string &Base, uint64_t Seed, size_t OpsPerThread,
                   SpanLog &Spans, int64_t Parent, bool Traced) {
  LiveOutcome O;
  removeStream(Base);
  ScenarioOptions SO = liveOptions(Base, Traced);
  Scenario S;
  {
    SpanScope Sp(Spans, "harness.makeCompositeScenario", Parent);
    S = makeCompositeScenario(SO);
  }
  WorkloadOptions WO;
  WO.Threads = AppThreads;
  WO.OpsPerThread = static_cast<unsigned>(OpsPerThread);
  WO.Seed = Seed;
  WO.BackgroundOp = S.BackgroundOp;
  std::mutex M;
  {
    SpanScope E2e(Spans, "e2e.live", Parent);
    uint64_t T0 = nowNs();
    WorkloadResult WR;
    {
      SpanScope Sp(Spans, "harness.runWorkload", E2e.id());
      OpSampler Smp;
      if (Traced) {
        Smp = {&Spans, Sp.id(), &O.OpNs, &M};
      }
      WR = runWorkload(WO, sampledOp(S.Op, Smp, "auto.Op"));
    }
    uint64_t T1 = nowNs();
    {
      SpanScope Sp(Spans, "verifier.finish", E2e.id());
      O.R = S.Finish();
    }
    uint64_t T2 = nowNs();
    O.Ops = WR.OpsIssued;
    O.AppS = WR.Seconds;
    O.E2eS = seconds(T2 - T0);
    O.FinishS = seconds(T2 - T1);
  }
  if (!O.R.ok()) {
    O.Why = "clean live run reported " +
            std::to_string(O.R.Violations.size()) + " violation(s): " +
            O.R.Violations.front().str();
    return O;
  }
  EpochCheckOptions EO;
  EO.Threads = 4;
  {
    SpanScope Sp(Spans, "epoch.epochCheck", Parent);
    uint64_t T0 = nowNs();
    O.Recheck = epochCheck(Base, 4, makeCompositePipeline(true), EO);
    O.RecheckS = seconds(nowNs() - T0);
  }
  O.Why = compareReports(O.R, O.Recheck, true);
  if (O.Why.empty() && O.Recheck.SerialRechecks)
    O.Why = "clean chain needed " + std::to_string(O.Recheck.SerialRechecks) +
            " serial re-check(s)";
  return O;
}

struct ReplayOutcome {
  std::string Why;
  VerifierReport R;
  uint64_t Records = 0;
  uint64_t Calls = 0;
  double GenS = 0;
  double E2eS = 0;
  double FinishS = 0;
  std::vector<double> AppendNs;
};

/// Replays the stream at \p Path at full speed, one generator thread
/// streaming it through LogFileReader into a fresh verifier.
ReplayOutcome replayOp(const std::string &Path, const StreamInfo &In,
                       const ReplayConfig &C, SpanLog &Spans, int64_t Parent,
                       bool Traced) {
  ReplayOutcome O;
  PipelineFactory F = factoryFor(C, false);
  std::unique_ptr<Verifier> V;
  {
    SpanScope Sp(Spans, "verifier.start", Parent);
    V = makeVerifier(C, F, false, Traced);
  }
  LogFileReader Rd(Path);
  if (!Rd.valid()) {
    V->finish();
    O.Why = "cannot open stream " + Path;
    return O;
  }
  LogWriter &W = V->log().writer();
  SpanScope E2e(Spans, "e2e.replay", Parent);
  uint64_t T0 = nowNs();
  {
    SpanScope Loop(Spans, "replay.loop", E2e.id());
    Action A;
    if (!Traced) {
      while (Rd.next(A)) {
        O.Calls += A.Kind == ActionKind::AK_Call;
        W.append(std::move(A));
        ++O.Records;
      }
    } else {
      for (;;) {
        bool Sample = sampleNow(AppendSample);
        uint64_t D0 = Sample ? nowNs() : 0;
        if (!Rd.next(A))
          break;
        O.Calls += A.Kind == ActionKind::AK_Call;
        if (!Sample) {
          W.append(std::move(A));
        } else {
          uint64_t D1 = nowNs();
          W.append(std::move(A));
          uint64_t D2 = nowNs();
          Spans.add("serialize.decode", D0, D1, Loop.id(), AppendSample, 0);
          Spans.add("log.append", D1, D2, Loop.id(), AppendSample, 0);
          O.AppendNs.push_back(double(D2 - D1));
        }
        ++O.Records;
      }
    }
  }
  uint64_t T1 = nowNs();
  {
    SpanScope Sp(Spans, "verifier.finish", E2e.id());
    O.R = V->finish();
  }
  uint64_t T2 = nowNs();
  O.GenS = seconds(T1 - T0);
  O.E2eS = seconds(T2 - T0);
  O.FinishS = seconds(T2 - T1);
  if (Rd.malformed())
    O.Why = "stream decode failed";
  else if (!O.R.ok())
    O.Why = "clean replay reported " + std::to_string(O.R.Violations.size()) +
            " violation(s): " + O.R.Violations.front().str();
  else
    O.Why = checkCounts(O.R, In);
  return O;
}

/// The x4 epoch re-check of a recorded stream, checked against the
/// online report of the same stream.
std::string recheckOp(const std::string &Path, const ReplayConfig &C,
                      bool Multiset, const VerifierReport &Online,
                      double &WallS, uint64_t &Records, SpanLog &Spans,
                      int64_t Parent) {
  EpochCheckOptions EO;
  EO.Threads = 4;
  EO.Checker.Mode =
      C.ViewLevel ? CheckMode::CM_ViewRefinement : CheckMode::CM_IORefinement;
  SpanScope Sp(Spans, "epoch.epochCheck", Parent);
  uint64_t T0 = nowNs();
  EpochReport ER = epochCheck(Path, objectsOf(C), factoryFor(C, Multiset), EO);
  WallS = seconds(nowNs() - T0);
  Records = ER.Report.LogRecords;
  // A detection rep stops at its verdict, so only the verdicts compare.
  std::string Why = compareReports(Online, ER, !Multiset);
  if (Why.empty() && !Online.Violations.empty()) {
    const Violation &A = Online.Violations.front();
    const Violation &B = ER.Report.Violations.front();
    if (A.Seq != B.Seq || A.Obj != B.Obj)
      Why = "epoch check flags seq " + std::to_string(B.Seq) +
            ", online flagged seq " + std::to_string(A.Seq);
  }
  return Why;
}

//===----------------------------------------------------------------------===//
// Detection: the Table 1 buggy multiset, replayed open-loop
//===----------------------------------------------------------------------===//

struct DetectInput {
  std::string Path;
  std::vector<Action> Recs;
  /// The decidable record: feeding records [0, J] to a checker makes it
  /// report the violation, [0, J) does not.
  uint64_t J = 0;
  /// The violating record and object the offline checker reports.
  uint64_t ViolSeq = 0;
  ObjectId ViolObj = 0;
};

struct RepOutcome {
  std::string Why;
  double LatencyUs = 0;
  uint64_t Appended = 0;
  uint64_t Calls = 0;
  double GenS = 0;
  double E2eS = 0;
  double FinishS = 0;
  VerifierReport R;
};

/// One detection rep: a fresh online verifier, records replayed at
/// DetectRatePerS from record 0; the latency runs from the moment record
/// J was due to the first violationSeen().
RepOutcome detectRep(const DetectInput &In, const ReplayConfig &C,
                     SpanLog &Spans, int64_t Parent, bool Traced,
                     std::vector<double> &LateUs) {
  RepOutcome O;
  std::unique_ptr<Verifier> V;
  {
    SpanScope Sp(Spans, "verifier.start", Parent);
    V = makeVerifier(C, factoryFor(C, true), true, Traced);
  }
  LogWriter &W = V->log().writer();
  const double PeriodNs = 1e9 / DetectRatePerS;
  for (uint64_t T = nowNs(); nowNs() - T < DetectSettleNs;)
    std::this_thread::yield();
  SpanScope E2e(Spans, "e2e.detect", Parent);
  uint64_t Seen = 0;
  uint64_t T0 = nowNs();
  uint64_t DueJ = T0 + static_cast<uint64_t>(double(In.J) * PeriodNs);
  {
    SpanScope Loop(Spans, "replay.paced", E2e.id());
    for (size_t I = 0; I < In.Recs.size() && !Seen; ++I) {
      uint64_t Due = T0 + static_cast<uint64_t>(double(I) * PeriodNs);
      uint64_t Now = nowNs();
      // Yield while waiting: a spinning generator would keep a core from
      // a waking flusher or pump thread for a whole scheduler tick.
      while (Now < Due) {
        if (I > In.J && V->violationSeen()) {
          Seen = Now;
          break;
        }
        std::this_thread::yield();
        Now = nowNs();
      }
      if (Seen)
        break;
      if (I % 16 == 0 || I == In.J)
        LateUs.push_back(double(Now - Due) / 1e3);
      O.Calls += In.Recs[I].Kind == ActionKind::AK_Call;
      W.append(In.Recs[I]);
      ++O.Appended;
      if (I >= In.J && V->violationSeen())
        Seen = nowNs();
    }
  }
  uint64_t TGen = nowNs();
  // The stream ran out before the verdict: keep polling for it.
  while (!Seen && nowNs() - TGen < 2000000000ull) {
    if (V->violationSeen())
      Seen = nowNs();
    std::this_thread::yield();
  }
  uint64_t T1 = nowNs();
  {
    SpanScope Sp(Spans, "verifier.finish", E2e.id());
    O.R = V->finish();
  }
  uint64_t T2 = nowNs();
  O.GenS = seconds(TGen - T0);
  O.E2eS = seconds(T2 - T0);
  O.FinishS = seconds(T2 - T1);
  if (!Seen) {
    O.Why = "no violation flagged";
    return O;
  }
  O.LatencyUs = double(Seen - DueJ) / 1e3;
  if (O.R.Violations.empty()) {
    O.Why = "violationSeen() but the report has no violation";
    return O;
  }
  const Violation &First = O.R.Violations.front();
  if (First.Seq != In.ViolSeq || First.Obj != In.ViolObj)
    O.Why = "flagged object " + std::to_string(First.Obj) + " seq " +
            std::to_string(First.Seq) + ", offline checker found object " +
            std::to_string(In.ViolObj) + " seq " + std::to_string(In.ViolSeq);
  return O;
}

/// Records the buggy multiset under chaos and finds its decidable record
/// by feeding a RefinementChecker record by record. Retries with derived
/// seeds until a recording shows the bug. Writes the replayed prefix
/// (through record J + DetectTail) to \p Path and its facts to \p M
/// under \p Key. \returns false on failure.
bool setupDetect(const std::string &Path, uint64_t Seed, double Scale,
                 Meta &M, const std::string &Key, SpanLog &Spans,
                 int64_t Parent) {
  const std::string Raw = Path + ".raw";
  for (unsigned Attempt = 0; Attempt < 32; ++Attempt) {
    uint64_t S = Seed * 7919 + Attempt * 104729;
    removeStream(Raw);
    {
      SpanScope Sp(Spans, "setup.detect.record", Parent);
      ScenarioOptions SO;
      SO.Prog = Program::P_MultisetVector;
      SO.Mode = RunMode::RM_LogOnlyView;
      SO.Buggy = true;
      SO.Buffered = true;
      SO.LogPath = Raw;
      Scenario Sc = makeScenario(SO);
      WorkloadOptions WO;
      WO.Threads = 4;
      WO.OpsPerThread =
          static_cast<unsigned>(scaled(300, std::max(Scale, 0.5)));
      WO.KeyPoolSize = 16;
      WO.Seed = S;
      Chaos::enable(4, S);
      runWorkload(WO, Sc.Op);
      Chaos::disable();
      Sc.Finish();
    }
    std::vector<Action> Recs;
    if (!loadLogFile(Raw, Recs))
      return false;
    std::unique_ptr<Spec> Sp;
    std::unique_ptr<Replayer> Rp;
    std::string Name;
    makeProgramPipeline(Program::P_MultisetVector, true)(0, Name, Sp, Rp);
    CheckerConfig CC;
    RefinementChecker Chk(*Sp, Rp.get(), CC);
    uint64_t J = ~uint64_t(0);
    {
      SpanScope Sc(Spans, "setup.detect.checker.feed", Parent);
      for (size_t I = 0; I < Recs.size(); ++I) {
        Recs[I].Seq = I;
        Chk.feed(Recs[I]);
        if (Chk.hasViolation()) {
          J = I;
          break;
        }
      }
    }
    if (J == ~uint64_t(0) || J < DetectMinJ)
      continue;
    const Violation &V = Chk.violations().front();
    Recs.resize(std::min<size_t>(Recs.size(), J + 1 + DetectTail));
    removeStream(Path);
    {
      BufferedLog::Options BO;
      BO.FilePath = Path;
      BO.RetainRecords = false;
      BufferedLog L(BO);
      if (!L.valid())
        return false;
      for (const Action &A : Recs)
        L.append(A);
      L.close();
    }
    removeStream(Raw);
    M[Key + ".j"] = std::to_string(J);
    M[Key + ".viol_seq"] = std::to_string(V.Seq);
    M[Key + ".viol_obj"] = std::to_string(V.Obj);
    return true;
  }
  removeStream(Raw);
  return false;
}

std::string detectPath(const std::string &Dir, unsigned K) {
  return Dir + "/detect-" + std::to_string(K) + ".log";
}

std::string detectKey(unsigned K) { return "detect." + std::to_string(K); }

bool loadDetect(const std::string &Dir, const Meta &M,
                std::vector<DetectInput> &Ins) {
  for (unsigned K = 0; K < DetectStreams; ++K) {
    DetectInput In;
    In.Path = detectPath(Dir, K);
    std::string Key = detectKey(K);
    if (!M.count(Key + ".j") || !loadLogFile(In.Path, In.Recs))
      return false;
    for (size_t I = 0; I < In.Recs.size(); ++I)
      In.Recs[I].Seq = I;
    In.J = metaU64(M, Key + ".j");
    In.ViolSeq = metaU64(M, Key + ".viol_seq");
    In.ViolObj = static_cast<ObjectId>(metaU64(M, Key + ".viol_obj"));
    if (In.J >= In.Recs.size())
      return false;
    Ins.push_back(std::move(In));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Set-up phase
//===----------------------------------------------------------------------===//

/// Records the queue I/O stream: the bounded queue under online I/O
/// refinement on BufferedLog, as a segmented chain with sidecars.
bool recordQueueStream(const std::string &Base, uint64_t Seed, double Scale) {
  ScenarioOptions SO;
  SO.Prog = Program::P_Queue;
  SO.Mode = RunMode::RM_OnlineIO;
  SO.Buffered = true;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = static_cast<uint64_t>(SegmentBytes);
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  Scenario S = makeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = AppThreads;
  WO.OpsPerThread =
      static_cast<unsigned>(scaled(QueueStreamOpsPerThread, Scale));
  WO.Seed = Seed;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  return S.Finish().ok();
}

bool recordCompositeStream(const std::string &Base, uint64_t Seed,
                           double Scale) {
  Scenario S = makeCompositeScenario(liveOptions(Base, false));
  WorkloadOptions WO;
  WO.Threads = AppThreads;
  WO.OpsPerThread =
      static_cast<unsigned>(scaled(CompositeStreamOpsPerThread, Scale));
  WO.Seed = Seed;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  return S.Finish().ok();
}

int runSetup(const Args &A) {
  SpanLog Spans(A.Trace);
  const std::string Dir = A.WorkDir;
  Meta M;
  uint64_t T0 = nowNs();
  {
    SpanScope Root(Spans, "setup", -1);
    for (unsigned K = 0; K < DetectStreams; ++K)
      if (!setupDetect(detectPath(Dir, K), A.Seed * DetectStreams + K,
                       A.Scale, M, detectKey(K), Spans, Root.id())) {
        std::fprintf(stderr, "setup: no recording showed the multiset "
                             "bug\n");
        return 1;
      }
    std::string Stream = Dir + "/stream.log";
    removeStream(Stream);
    bool Ok = true;
    if (A.Workload == "composite-replay") {
      SpanScope Sp(Spans, "setup.record.composite", Root.id());
      Ok = recordCompositeStream(Stream, A.Seed, A.Scale);
    } else if (A.Workload == "queue-io-replay") {
      SpanScope Sp(Spans, "setup.record.queue", Root.id());
      Ok = recordQueueStream(Stream, A.Seed, A.Scale);
    }
    if (!Ok) {
      std::fprintf(stderr, "setup: the clean recording reported a "
                           "violation\n");
      return 1;
    }
    if (A.Workload == "composite-replay" || A.Workload == "queue-io-replay") {
      SpanScope Sp(Spans, "setup.scan", Root.id());
      StreamInfo In;
      if (!scanStream(Stream, In) || !In.Records) {
        std::fprintf(stderr, "setup: cannot read back the recording\n");
        return 1;
      }
      M["stream.records"] = std::to_string(In.Records);
      for (size_t I = 0; I < In.PerObject.size(); ++I)
        M["stream.obj" + std::to_string(I)] = std::to_string(In.PerObject[I]);
      M["stream.objects"] = std::to_string(In.PerObject.size());
    }
  }
  double SetupS = seconds(nowNs() - T0);
  if (!writeMeta(Dir + "/meta.txt", M)) {
    std::fprintf(stderr, "setup: cannot write %s/meta.txt\n", Dir.c_str());
    return 1;
  }
  if (Spans.on())
    Spans.writeChrome(Dir + "/setup-trace.json");
  std::printf("{\"setup_s\": %.9f}\n", SetupS);
  return 0;
}

//===----------------------------------------------------------------------===//
// Measure phase
//===----------------------------------------------------------------------===//

/// Everything one measured phase collects, untraced and traced apart.
struct Samples {
  std::vector<double> Checked, AppOps, Recheck, DetectUs;
  std::vector<double> Finish, RssMb;
};

/// What the traced operations leave for the per-layer ledger.
struct TracedRun {
  VerifierReport R;
  std::vector<double> AppendNs;
  bool Have = false;
};

/// Runs detection reps until \p Budget reps (or, with Budget == 0, until
/// \p Seconds elapse), recording one verdict per rep. Alternates traced
/// and untraced reps when \p Traced. The rates are ratios of sums over
/// the untraced reps: the streams differ in length, and a median of
/// per-rep rates would track the stream mix.
void detectPhase(const std::vector<DetectInput> &Ins, size_t Budget,
                 double Seconds, bool Traced, SpanLog &Spans,
                 SpanLog &NoSpans, Verdicts &Vd, Samples &Off, Samples &On,
                 TracedRun &TR, std::vector<double> &LateUs,
                 size_t RecheckEvery) {
  const ReplayConfig C = detectConfig();
  uint64_t Start = nowNs();
  std::vector<std::vector<double>> PerStream(Ins.size());
  uint64_t Recs = 0, Calls = 0, RecheckRecs = 0;
  double E2e = 0, Gen = 0, RecheckWall = 0;
  for (size_t Rep = 0;; ++Rep) {
    if (Budget ? Rep >= Budget
               : (Rep >= 20 && seconds(nowNs() - Start) >= Seconds))
      break;
    bool T = Traced && Rep % 2 == 1;
    const DetectInput &In = Ins[Rep % Ins.size()];
    SpanLog &Sp = T ? Spans : NoSpans;
    SpanScope Root(Sp, "op.detect", -1);
    resetPeakRss();
    RepOutcome O = detectRep(In, C, Sp, Root.id(), T, LateUs);
    std::string Why = O.Why;
    Samples &S = T ? On : Off;
    if (Why.empty()) {
      S.DetectUs.push_back(O.LatencyUs);
      PerStream[Rep % Ins.size()].push_back(O.LatencyUs);
      S.Finish.push_back(O.FinishS);
      S.RssMb.push_back(peakRssMb());
      if (!T) {
        Recs += O.Appended;
        Calls += O.Calls;
        E2e += O.E2eS;
        Gen += O.GenS;
      }
      if (T) {
        TR.R = O.R;
        TR.Have = true;
      }
      // Every RecheckEvery-th cycle through the streams is re-checked.
      if (RecheckEvery && (Rep / Ins.size()) % RecheckEvery == 0) {
        double W = 0;
        uint64_t N = 0;
        Why = recheckOp(In.Path, C, true, O.R, W, N, Sp, Root.id());
        RecheckRecs += N;
        RecheckWall += W;
      }
    }
    Vd.record("detect rep " + std::to_string(Rep), Why);
  }
  if (E2e > 0) {
    Off.Checked.push_back(double(Recs) / E2e);
    Off.AppOps.push_back(double(Calls) / Gen);
  }
  if (RecheckWall > 0)
    Off.Recheck.push_back(double(RecheckRecs) / RecheckWall);
  for (size_t K = 0; K < Ins.size(); ++K)
    std::printf("detect stream %zu: J %llu, %zu reps, p50 %.1f us\n", K,
                static_cast<unsigned long long>(Ins[K].J),
                PerStream[K].size(), percentile(PerStream[K], 50));
}

/// Stage ledger for the last traced span named \p E2eName, which covers
/// exactly the interval an end-to-end metric times. A leaf span on its
/// blocking path is a stage and counts its duration. A sampled span
/// counts duration x weight, averaged over the lanes that ran it
/// concurrently. The part of a parent span that neither its unsampled
/// children nor its sampled children's estimates cover is attributed to
/// no layer; with the e2e span's own glue it is the unexplained remainder.
void reconcile(const SpanLog &Spans, const char *E2eName, double &Unexplained,
               double &WallMs) {
  // A sampled span also times one clock read; left in, the extrapolation
  // would charge it to every call the sample stands for.
  std::vector<double> Pairs;
  for (int I = 0; I < 2001; ++I) {
    uint64_t A = nowNs();
    Pairs.push_back(double(nowNs() - A));
  }
  const double ClockNs = median(Pairs);
  std::vector<Span> S = Spans.spans();
  int64_t Root = -1;
  for (size_t I = 0; I < S.size(); ++I)
    if (S[I].Name == E2eName && S[I].End > S[I].Start)
      Root = static_cast<int64_t>(I);
  if (Root < 0)
    return;
  std::map<int64_t, std::vector<size_t>> Kids;
  for (size_t I = 0; I < S.size(); ++I)
    if (S[I].Parent >= 0)
      Kids[S[I].Parent].push_back(I);
  auto Dur = [&](size_t I) {
    return S[I].End > S[I].Start ? double(S[I].End - S[I].Start) : 0.0;
  };
  std::map<std::string, double> Stages;   // attributed to a layer
  std::map<std::string, double> Unowned;  // covered by no child span
  std::vector<size_t> Stack = {static_cast<size_t>(Root)};
  while (!Stack.empty()) {
    size_t X = Stack.back();
    Stack.pop_back();
    const std::vector<size_t> &K = Kids[static_cast<int64_t>(X)];
    if (K.empty()) {
      Stages[S[X].Name] += Dur(X);
      continue;
    }
    double Covered = 0;
    std::map<std::string, std::map<uint32_t, double>> Sampled;
    for (size_t C : K) {
      if (S[C].Weight > 1) {
        Sampled[S[C].Name][S[C].Lane] +=
            std::max(0.0, Dur(C) - ClockNs) * S[C].Weight;
      } else {
        Covered += Dur(C);
        Stack.push_back(C);
      }
    }
    for (auto &[Name, Lanes] : Sampled) {
      double Sum = 0;
      for (auto &[Lane, Ns] : Lanes)
        Sum += Ns;
      double PerLane = Sum / double(Lanes.size());
      Stages[Name + " (sampled)"] += PerLane;
      Covered += PerLane;
    }
    Unowned[S[X].Name + " (own)"] += Dur(X) - Covered;
  }
  WallMs = Dur(static_cast<size_t>(Root)) / 1e6;
  double Wall = WallMs * 1e6, Explained = 0, Rest = 0;
  std::printf("stage ledger (%s: one traced operation's blocking path; "
              "%.0f ns clock read taken off each sampled span):\n",
              E2eName, ClockNs);
  for (auto &[Name, Ns] : Stages) {
    Explained += Ns;
    std::printf("  %-40s %12.3f ms %7.1f%%\n", Name.c_str(), Ns / 1e6,
                100.0 * Ns / Wall);
  }
  std::printf("  %-40s %12.3f ms %7.1f%%\n", "sum of stages", Explained / 1e6,
              100.0 * Explained / Wall);
  for (auto &[Name, Ns] : Unowned) {
    Rest += Ns;
    std::printf("  %-40s %12.3f ms %7.1f%%\n", Name.c_str(), Ns / 1e6,
                100.0 * Ns / Wall);
  }
  Unexplained = 100.0 * Rest / Wall;
  std::printf("  %-40s %12.3f ms %7.1f%%\n  %-40s %12.3f ms\n",
              "unexplained remainder", Rest / 1e6, Unexplained, "e2e wall",
              WallMs);
}

/// Full-speed replay of \p Path into \p C with the log backend swapped,
/// for the traced backend cross-check. \returns records/s; the verdict
/// (clean, or flagged for the buggy multiset) counts as one operation.
double backendRate(const std::string &Path, ReplayConfig C, LogBackend B,
                   bool Multiset, SpanLog &Spans, Verdicts &Vd) {
  C.Backend = B;
  const char *Name = B == LogBackend::LB_Buffered ? "crosscheck.buffered"
                                                  : "crosscheck.default";
  auto V = makeVerifier(C, factoryFor(C, Multiset), false, false);
  LogFileReader Rd(Path);
  LogWriter &W = V->log().writer();
  SpanScope Sp(Spans, Name, -1);
  uint64_t T0 = nowNs();
  Action A;
  uint64_t N = 0;
  while (Rd.next(A)) {
    W.append(std::move(A));
    ++N;
  }
  VerifierReport R = V->finish();
  double S = seconds(nowNs() - T0);
  std::string Why;
  if (R.LogRecords != N)
    Why = "checked " + std::to_string(R.LogRecords) + " of " +
          std::to_string(N) + " records";
  else if (R.ok() == Multiset)
    Why = Multiset ? "buggy stream not flagged" : "clean stream flagged";
  Vd.record(Name, Why);
  return S > 0 ? double(N) / S : 0;
}

/// gen.ns_per_rec: the replay loop into a null writer.
double generatorNsPerRec(const std::string &Path, SpanLog &Spans) {
  SpanScope Sp(Spans, "gen.nullReplay", -1);
  LogFileReader Rd(Path);
  NullWriter W;
  uint64_t T0 = nowNs();
  Action A;
  while (Rd.next(A))
    W.append(std::move(A));
  uint64_t T1 = nowNs();
  return W.N ? double(T1 - T0) / double(W.N) : 0;
}

/// serialize.decode_ns_per_rec: one LogFileReader pass.
double decodeNsPerRec(const std::string &Path, SpanLog &Spans) {
  SpanScope Sp(Spans, "serialize.LogFileReader", -1);
  LogFileReader Rd(Path);
  uint64_t T0 = nowNs(), N = 0;
  Action A;
  while (Rd.next(A))
    ++N;
  uint64_t T1 = nowNs();
  return N ? double(T1 - T0) / double(N) : 0;
}

/// checker.ns_per_rec.<object>: a direct single-thread feed of each
/// object's slice of a composite chain (queue_io: the queue slice's
/// call/return/commit records under I/O refinement).
void checkerProbes(const std::string &Chain, SpanLog &Spans, Metrics &L,
                   Verdicts &Vd) {
  static const char *Names[] = {"multiset", "cache", "blinktree", "queue",
                                "queue_io"};
  for (unsigned K = 0; K < 5; ++K) {
    ObjectId Obj = K == 4 ? 3 : K;
    bool View = K != 4;
    std::vector<Action> Slice;
    {
      LogFileReader Rd(Chain);
      Action A;
      while (Rd.next(A)) {
        if (A.Obj != Obj)
          continue;
        if (!View && A.Kind != ActionKind::AK_Call &&
            A.Kind != ActionKind::AK_Return &&
            A.Kind != ActionKind::AK_Commit)
          continue;
        Slice.push_back(std::move(A));
      }
    }
    std::string Name;
    std::unique_ptr<Spec> S;
    std::unique_ptr<Replayer> R;
    makeCompositePipeline(View)(Obj, Name, S, R);
    CheckerConfig CC;
    CC.Mode = View ? CheckMode::CM_ViewRefinement : CheckMode::CM_IORefinement;
    RefinementChecker C(*S, View ? R.get() : nullptr, CC);
    std::string SpanName = std::string("checker.feed.") + Names[K];
    SpanScope Sp(Spans, SpanName.c_str(), -1);
    uint64_t T0 = nowNs();
    for (const Action &A : Slice)
      C.feed(A);
    C.finish();
    uint64_t T1 = nowNs();
    L.set(std::string("checker.ns_per_rec.") + Names[K],
          Slice.empty() ? 0 : double(T1 - T0) / double(Slice.size()),
          "ns/rec");
    Vd.record(std::string("direct feed ") + Names[K],
              C.hasViolation() ? C.violations().front().str() : "");
  }
}

void telemetryLayer(const TracedRun &TR, Metrics &L, bool GeneratorTimed) {
  const TelemetrySnapshot &T = TR.R.Telemetry;
  double KRec = std::max(1.0, double(TR.R.LogRecords) / 1000.0);
  if (GeneratorTimed && !TR.AppendNs.empty()) {
    L.set("log.append_ns_p50", percentile(TR.AppendNs, 50), "ns");
    L.set("log.append_ns_p99", percentile(TR.AppendNs, 99), "ns");
  } else {
    // Live runs append from the app threads: the log's own sampled
    // latency histogram (power-of-two bucket bounds).
    L.set("log.append_ns_p50",
          double(T.histo(Histo::H_AppendNs).percentileBound(50)), "ns");
    L.set("log.append_ns_p99",
          double(T.histo(Histo::H_AppendNs).percentileBound(99)), "ns");
  }
  L.set("log.append_stalls_per_krec",
        double(T.counter(Counter::C_AppendStalls)) / KRec, "count/krec");
  L.set("log.flush_batch_mean", T.histo(Histo::H_FlushBatch).mean(), "rec");
  L.set("log.reorder_occupancy_p99",
        double(T.histo(Histo::H_ReorderOccupancy).percentileBound(99)), "rec");
  L.set("pump.feed_batch_mean", T.histo(Histo::H_FeedBatch).mean(), "rec");
  L.set("pump.feed_ns_p50",
        double(T.histo(Histo::H_FeedNs).percentileBound(50)), "ns");
  L.set("pump.lag_p99_rec",
        double(T.histo(Histo::H_CheckerLag).percentileBound(99)), "rec");
  uint64_t Max = 0, Sum = 0;
  for (const ObjectReport &O : TR.R.Objects) {
    Max = std::max(Max, O.Records);
    Sum += O.Records;
  }
  L.set("pool.hot_object_share", Sum ? double(Max) / double(Sum) : 0,
        "ratio");
  const CheckerStats &CS = TR.R.Stats;
  double Fed = std::max<double>(1, double(CS.ActionsFed));
  L.set("checker.replay_ns_per_rec", double(CS.ReplayNanos) / Fed, "ns/rec");
  L.set("checker.spec_ns_per_rec", double(CS.SpecNanos) / Fed, "ns/rec");
  L.set("checker.view_ns_per_rec", double(CS.ViewCompareNanos) / Fed,
        "ns/rec");
  uint64_t Lookups = CS.ObsMemoHits + CS.ObsMemoMisses;
  L.set("checker.memo_hit_ratio",
        Lookups ? double(CS.ObsMemoHits) / double(Lookups) : 0, "ratio");
  L.set("checker.memo_lookups", double(Lookups), "count");
  L.set("checker.max_queue_depth", double(CS.MaxQueueDepth), "count");
}

/// The ledger live operation every traced run makes: instrumentation,
/// snapshot, epoch, decode and direct-checker probes on one composite
/// chain written by the live recipe.
void ledgerProbes(const std::string &Dir, uint64_t Seed, double Scale,
                  SpanLog &Spans, Metrics &L, Verdicts &Vd,
                  const LiveOutcome *Own) {
  const std::string Chain = Dir + "/ledger.log";
  size_t Ops = scaled(LiveOpsPerThread, Scale, 200);
  LiveOutcome Fresh;
  const LiveOutcome *O = Own;
  if (!O) {
    SpanScope Root(Spans, "op.ledger-live", -1);
    Fresh = liveOp(Chain, Seed * 31 + 17, Ops, Spans, Root.id(), true);
    Vd.record("ledger live run", Fresh.Why);
    O = &Fresh;
  }
  const std::string &Path = Chain;
  // Instrumentation: the same op mix without hooks.
  std::vector<double> BareNs;
  {
    ScenarioOptions SO;
    SO.Mode = RunMode::RM_Bare;
    Scenario S = makeCompositeScenario(SO);
    WorkloadOptions WO;
    WO.Threads = AppThreads;
    WO.OpsPerThread = static_cast<unsigned>(Ops);
    WO.Seed = Seed * 31 + 17;
    WO.BackgroundOp = S.BackgroundOp;
    std::mutex M;
    SpanScope Sp(Spans, "harness.runWorkload.bare", -1);
    runWorkload(WO, sampledOp(S.Op, {&Spans, Sp.id(), &BareNs, &M},
                              "auto.Op.bare"));
  }
  double OpP50 = percentile(O->OpNs, 50), BareP50 = percentile(BareNs, 50);
  L.set("auto.op_ns_p50", OpP50, "ns");
  L.set("auto.bare_op_ns_p50", BareP50, "ns");
  L.set("auto.overhead_x", BareP50 > 0 ? OpP50 / BareP50 : 0, "x");
  L.set("auto.records_per_op",
        O->Ops ? double(O->R.LogRecords) / double(O->Ops) : 0, "rec/op");

  const TelemetrySnapshot &T = O->R.Telemetry;
  L.set("snapshot.writes", double(T.counter(Counter::C_SnapshotWrites)),
        "count");
  L.set("snapshot.skips", double(T.counter(Counter::C_SnapshotSkips)),
        "count");
  double FromZeroS = 0;
  {
    EpochCheckOptions EO;
    EO.UseSnapshots = false;
    EO.Threads = 1;
    SpanScope Sp(Spans, "epoch.epochCheck.fromZero", -1);
    uint64_t T0 = nowNs();
    EpochReport ER = epochCheck(Path, 4, makeCompositePipeline(true), EO);
    FromZeroS = seconds(nowNs() - T0);
    Vd.record("from-zero re-check", compareReports(O->R, ER, true));
  }
  L.set("epoch.count", double(O->Recheck.Epochs), "count");
  L.set("epoch.serial_rechecks", double(O->Recheck.SerialRechecks), "count");
  L.set("epoch.speedup", O->RecheckS > 0 ? FromZeroS / O->RecheckS : 0, "x");
  L.set("serialize.decode_ns_per_rec", decodeNsPerRec(Path, Spans),
        "ns/rec");
  checkerProbes(Path, Spans, L, Vd);
}

int runMeasure(const Args &A) {
  const std::string Dir = A.WorkDir;
  const std::string &W = A.Workload;
  Meta M;
  if (!readMeta(Dir + "/meta.txt", M)) {
    std::fprintf(stderr, "measure: no set-up found in %s\n", Dir.c_str());
    return 1;
  }
  std::vector<DetectInput> DIns;
  if (!loadDetect(Dir, M, DIns)) {
    std::fprintf(stderr, "measure: cannot load the detection stream\n");
    return 1;
  }
  const bool Live = W == "composite-live";
  const bool Detect = W == "multiset-detect";
  const bool Replay = W == "composite-replay" || W == "queue-io-replay";
  if (!Live && !Detect && !Replay) {
    std::fprintf(stderr, "measure: unknown workload '%s'\n", W.c_str());
    return 2;
  }
  const ReplayConfig RC =
      W == "composite-replay" ? compositeReplayConfig() : queueReplayConfig();
  const std::string Stream = Dir + "/stream.log";
  StreamInfo In;
  if (Replay) {
    In.Records = metaU64(M, "stream.records");
    for (uint64_t I = 0; I < metaU64(M, "stream.objects"); ++I)
      In.PerObject.push_back(metaU64(M, "stream.obj" + std::to_string(I)));
    if (!In.Records) {
      std::fprintf(stderr, "measure: set-up recorded no stream\n");
      return 1;
    }
  }

  SpanLog Spans(A.Trace);
  SpanLog NoSpans(false); // untraced operations of a traced run
  Verdicts Vd;
  Samples Off, On;
  TracedRun TR;
  LiveOutcome LastLive;
  bool HaveLive = false;
  std::vector<double> LateUs;
  uint64_t Start = nowNs();
  auto TimeLeft = [&](size_t Done) {
    return Done < 3 || seconds(nowNs() - Start) < A.Seconds;
  };

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", W.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              int(A.Trace));
  if (Live) {
    size_t Ops = scaled(LiveOpsPerThread, A.Scale, 200);
    for (size_t K = 0; TimeLeft(K); ++K) {
      bool T = A.Trace && K % 2 == 1;
      // The last traced operation's chain feeds the ledger probes.
      const std::string Chain = Dir + (T ? "/ledger.log" : "/live.log");
      SpanLog &Sp = T ? Spans : NoSpans;
      SpanScope Root(Sp, "op.composite-live", -1);
      resetPeakRss();
      LiveOutcome O = liveOp(Chain, A.Seed * 1000 + K, Ops, Sp, Root.id(), T);
      Vd.record("live op " + std::to_string(K), O.Why);
      if (!O.Why.empty())
        continue;
      Samples &S = T ? On : Off;
      double Recs = double(O.R.LogRecords);
      S.Checked.push_back(Recs / O.E2eS);
      S.AppOps.push_back(double(O.Ops) / O.AppS);
      S.Recheck.push_back(double(O.Recheck.Report.LogRecords) / O.RecheckS);
      S.Finish.push_back(O.FinishS);
      S.RssMb.push_back(peakRssMb());
      std::printf("op %zu%s: %.0f rec checked/s, %.0f app ops/s, %.0f rec "
                  "rechecked/s, %llu records\n",
                  K, T ? " (traced)" : "", S.Checked.back(), S.AppOps.back(),
                  S.Recheck.back(),
                  static_cast<unsigned long long>(O.R.LogRecords));
      if (T) {
        TR.R = O.R;
        TR.Have = true;
        LastLive = std::move(O);
        HaveLive = true;
      }
    }
  } else if (Replay) {
    for (size_t K = 0; TimeLeft(K); ++K) {
      bool T = A.Trace && K % 2 == 1;
      SpanLog &Sp = T ? Spans : NoSpans;
      SpanScope Root(Sp, ("op." + W).c_str(), -1);
      resetPeakRss();
      ReplayOutcome O = replayOp(Stream, In, RC, Sp, Root.id(), T);
      std::string Why = O.Why;
      Samples &S = T ? On : Off;
      if (Why.empty()) {
        double RecheckS = 0;
        uint64_t N = 0;
        Why = recheckOp(Stream, RC, false, O.R, RecheckS, N, Sp, Root.id());
        if (Why.empty()) {
          S.Checked.push_back(double(O.Records) / O.E2eS);
          S.AppOps.push_back(double(O.Calls) / O.GenS);
          S.Recheck.push_back(double(N) / RecheckS);
          S.Finish.push_back(O.FinishS);
          S.RssMb.push_back(peakRssMb());
          std::printf("op %zu%s: %.0f rec checked/s, %.0f calls/s, %.0f rec "
                      "rechecked/s, drain %.1f ms\n",
                      K, T ? " (traced)" : "", S.Checked.back(),
                      S.AppOps.back(), S.Recheck.back(), O.FinishS * 1e3);
          if (T) {
            TR.R = O.R;
            TR.AppendNs = O.AppendNs;
            TR.Have = true;
          }
        }
      }
      Vd.record(W + " op " + std::to_string(K), Why);
    }
  }
  // Detection: the workload itself, or (traced runs of the other
  // workloads) a fixed-size probe for the detect.* ledger entries.
  Samples DOff, DOn;
  TracedRun DTR;
  if (Detect || A.Trace)
    detectPhase(DIns, Detect ? 0 : scaled(ProbeReps, A.Scale, 20),
                A.Seconds, A.Trace && Detect, Spans, NoSpans, Vd, DOff, DOn,
                DTR, LateUs, Detect ? 4 : 0);
  if (Detect) {
    Off.Checked = DOff.Checked;
    Off.AppOps = DOff.AppOps;
    Off.Recheck = DOff.Recheck;
    Off.Finish = DOff.Finish;
    Off.RssMb = DOff.RssMb;
    TR = DTR;
  }
  const std::vector<double> &DetectUs = DOff.DetectUs;

  // Detection latency is reported (here and in the traced ledger) but not
  // gated: on a shared host a neighbour's busy period moves the p50 by up
  // to half and the p99 several-fold between otherwise identical runs.
  double P50 = percentile(DetectUs, 50), P99 = percentile(DetectUs, 99);
  if (!DetectUs.empty())
    std::printf("detect: %zu samples, p50 %.1f us, p99 %.1f us (%zu "
                "samples beyond the p99)\n",
                DetectUs.size(), P50, P99, DetectUs.size() / 100);

  Metrics E, L;
  E.set("checked_rec_per_s", median(Off.Checked), "rec/s");
  E.set("app_ops_per_s", median(Off.AppOps), "ops/s");
  std::vector<double> Rechecks = Off.Recheck;
  Rechecks.insert(Rechecks.end(), On.Recheck.begin(), On.Recheck.end());
  E.set("recheck_rec_per_s", median(Rechecks), "rec/s");
  E.set("peak_rss_mb", median(Off.RssMb), "MB");

  if (!A.Trace) {
    std::printf("end-to-end metrics:\n");
    E.print();
    Vd.printResult(E.json());
    return 0;
  }

  // ---- Traced run: the per-layer ledger. ----
  if (!TR.Have) {
    std::fprintf(stderr, "measure: no traced operation completed\n");
    return 1;
  }
  telemetryLayer(TR, L, !Live);
  // Tracing overhead on the workload's primary metric.
  double Untraced, Traced;
  if (Detect) {
    Untraced = median(DOff.DetectUs);
    Traced = median(DOn.DetectUs);
  } else {
    // Compare time per record, so a slower traced run reads as overhead.
    Untraced = 1.0 / std::max(1e-12, median(Off.Checked));
    Traced = 1.0 / std::max(1e-12, median(On.Checked));
  }
  L.set("trace.overhead_pct", Untraced > 0 ? 100.0 * (Traced / Untraced - 1)
                                           : 0,
        "%");
  std::vector<double> Drains = Detect ? DOn.Finish : On.Finish;
  L.set("verifier.drain_ms", median(Drains) * 1e3, "ms");

  // The workload's input stream: gen cost, bytes, backend cross-check.
  std::string Input = Live ? Dir + "/ledger.log"
                           : Detect ? DIns.front().Path : Stream;
  ReplayConfig XC = Live     ? ReplayConfig{true, true, 1}
                    : Detect ? detectConfig()
                             : RC;
  double GenNs = generatorNsPerRec(Input, Spans);
  L.set("gen.ns_per_rec", GenNs, "ns/rec");
  double WallNsPerRec = 1e9 / std::max(1e-12, median(Off.Checked));
  L.set("gen.share_of_wall", GenNs / WallNsPerRec, "ratio");
  if (Replay && GenNs > 0.5 * WallNsPerRec)
    std::printf("WARNING: generator costs %.0f ns/rec of a %.0f ns/rec "
                "wall: this replay is generator-bound\n",
                GenNs, WallNsPerRec);
  StreamInfo InInfo;
  scanStream(Input, InInfo);
  L.set("log.bytes_per_rec",
        InInfo.Records ? double(InInfo.Bytes) / double(InInfo.Records) : 0,
        "B/rec");
  double Buf =
      backendRate(Input, XC, LogBackend::LB_Buffered, Detect, Spans, Vd);
  double Def = backendRate(Input, XC, LogBackend::LB_Auto, Detect, Spans, Vd);
  L.set("log.buffered_backend_rec_per_s", Buf, "rec/s");
  L.set("log.default_backend_rec_per_s", Def, "rec/s");

  // Detection layer metrics (this workload's reps or the probe's).
  L.set("detect.p50_us", P50, "us");
  L.set("detect.p99_us", P99, "us");
  L.set("detect.gen_late_us_p99", percentile(LateUs, 99), "us");
  double Gap = 0;
  for (const DetectInput &In : DIns)
    Gap += double(In.J - In.ViolSeq);
  L.set("detect.decide_gap_rec", Gap / double(DIns.size()), "rec");
  L.set("detect.samples", double(DOff.DetectUs.size() + DOn.DetectUs.size()),
        "count");

  // Instrumentation, snapshot, epoch, decode and checker probes.
  ledgerProbes(Dir, A.Seed, A.Scale, Spans, L, Vd,
               HaveLive ? &LastLive : nullptr);

  double Unexplained = 0, WallMs = 0;
  const char *E2eName =
      Live ? "e2e.live" : Detect ? "e2e.detect" : "e2e.replay";
  reconcile(Spans, E2eName, Unexplained, WallMs);
  L.set("recon.unexplained_pct", Unexplained, "%");

  std::string TracePath = Dir + "/trace.json";
  if (!Spans.writeChrome(TracePath))
    std::fprintf(stderr, "measure: cannot write %s\n", TracePath.c_str());
  std::printf("spans: %zu written to %s\n", Spans.spans().size(),
              TracePath.c_str());
  std::printf("end-to-end metrics (untraced operations of this run):\n");
  E.print();
  std::printf("per-layer metrics:\n");
  L.print();
  Vd.printResult(L.json());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // Hundreds of short-lived verifier threads would otherwise spread their
  // allocations over up to 8 arenas per core, and peak_rss_mb would track
  // how many arenas the scheduler happened to create rather than the
  // pipeline's footprint.
  mallopt(M_ARENA_MAX, 4);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (A.Phase == "setup")
    return runSetup(A);
  return runMeasure(A);
}
