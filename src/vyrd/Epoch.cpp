//===- Epoch.cpp - Epoch-parallel offline verification --------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Epoch.h"

#include "vyrd/Serialize.h"
#include "vyrd/Snapshot.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace vyrd;

namespace {

/// One snapshot-delimited slice of the chain.
struct EpochSlice {
  size_t SegPos = 0;                  ///< first segment (index into Segs)
  const SnapshotFile *Snap = nullptr; ///< baseline; null = from zero
  uint64_t StartSeq = 0;
  uint64_t EndSeq = UINT64_MAX; ///< exclusive; UINT64_MAX for the last epoch
};

/// Outcome of one (object, epoch) task.
struct SliceResult {
  std::string Name; ///< object report name, from the factory
  std::vector<Violation> Violations;
  CheckerStats Stats;
  /// End-of-epoch state did not match the next sidecar's baseline (or
  /// could not be serialized for the audit). Conservative: forces the
  /// serial re-check, exactly like a violation.
  bool BaselineMismatch = false;
  /// The sidecar blob failed to restore into a fresh pipeline.
  bool RestoreFailed = false;
  /// The factory does not know this object id.
  bool Skipped = false;
  uint64_t SeqHwm = 0; ///< highest Seq seen + 1 (log size estimate)
};

/// True when \p Snap carries a restorable blob for every object id.
bool hasAllBlobs(const SnapshotFile &Snap, size_t NumObjects) {
  for (size_t O = 0; O < NumObjects; ++O)
    if (!Snap.find(static_cast<ObjectId>(O)))
      return false;
  return true;
}

/// Runs one slice for one object: fresh pipeline, optional sidecar
/// restore, feed the slice's records, then either finish (final slice)
/// or audit the end state against the next sidecar's baseline.
SliceResult runSlice(ObjectId O, const EpochSlice &E, bool Final,
                     const std::vector<ChainSegment> &Segs,
                     const PipelineFactory &Factory,
                     const EpochCheckOptions &Opts,
                     const SnapshotFile *NextSnap,
                     std::atomic<uint64_t> &Loads) {
  SliceResult Res;
  std::unique_ptr<Spec> S;
  std::unique_ptr<Replayer> R;
  if (!Factory(O, Res.Name, S, R) || !S) {
    Res.Skipped = true;
    return Res;
  }
  CheckerConfig CC = Opts.Checker;
  if (!Final) {
    // Executions that straddle the epoch boundary are completed by the
    // successor slice; an incomplete tail here is expected, not an error.
    CC.AllowIncompleteTail = true;
  }
  RefinementChecker Checker(*S, R.get(), CC);
  if (E.Snap) {
    const SnapshotObject *SO = E.Snap->find(O);
    ByteReader Blob(SO ? SO->Blob.data() : nullptr, SO ? SO->Blob.size() : 0);
    if (!SO || !Checker.restoreState(Blob)) {
      Res.RestoreFailed = true;
      return Res;
    }
    Loads.fetch_add(1, std::memory_order_relaxed);
    if (Opts.Telem)
      Opts.Telem->count(Counter::C_SnapshotLoads);
  }
  LogFileReader Reader(Segs[E.SegPos].Path);
  if (!Reader.valid()) {
    Violation V;
    V.Kind = ViolationKind::VK_Instrumentation;
    V.Seq = E.StartSeq;
    V.Message = "cannot open log segment " + Segs[E.SegPos].Path;
    Res.Violations.push_back(V);
    return Res;
  }
  Action A;
  while (Reader.next(A)) {
    if (A.Seq >= E.EndSeq)
      break;
    Res.SeqHwm = std::max(Res.SeqHwm, A.Seq + 1);
    if (A.Obj != O)
      continue;
    Checker.feed(A);
    if (CC.StopAtFirstViolation && Checker.hasViolation())
      break;
  }
  if (Reader.malformed()) {
    Violation V;
    V.Kind = ViolationKind::VK_Instrumentation;
    V.Seq = Res.SeqHwm;
    V.Message = "malformed log record in epoch slice (chain " +
                Segs[E.SegPos].Path + "...)";
    Checker.finish();
    Res.Violations = Checker.violations();
    Res.Violations.push_back(V);
    Res.Stats = Checker.stats();
    return Res;
  }
  if (Final) {
    Checker.finish();
    Res.Violations = Checker.violations();
    Res.Stats = Checker.stats();
    return Res;
  }
  // Non-final slice: no finish() (saveState refuses finished checkers,
  // and the open tail belongs to the successor). A violation forces the
  // serial re-check; otherwise audit the end state against the baseline
  // the next epoch restored from.
  Res.Violations = Checker.violations();
  Res.Stats = Checker.stats();
  if (!Res.Violations.empty())
    return Res;
  ByteWriter W;
  if (!Checker.saveState(W)) {
    Res.BaselineMismatch = true;
    return Res;
  }
  const SnapshotObject *NO = NextSnap ? NextSnap->find(O) : nullptr;
  size_t MyOff = 0, MyLen = 0, NxOff = 0, NxLen = 0;
  if (!NO ||
      !RefinementChecker::coreSection(W.buffer().data(), W.buffer().size(),
                                      MyOff, MyLen) ||
      !RefinementChecker::coreSection(NO->Blob.data(), NO->Blob.size(),
                                      NxOff, NxLen) ||
      MyLen != NxLen ||
      !std::equal(W.buffer().data() + MyOff, W.buffer().data() + MyOff + MyLen,
                  NO->Blob.data() + NxOff)) {
    // The state this slice ends in is not the state the next slice
    // started from: the stitch would be unsound, so flag it. (Stats
    // sections legitimately differ — memo hits depend on where the
    // checker started — which is why only the cores are compared.)
    Res.BaselineMismatch = true;
  }
  return Res;
}

} // namespace

EpochReport vyrd::epochCheck(const std::string &LogPath, size_t NumObjects,
                             const PipelineFactory &Factory,
                             const EpochCheckOptions &Opts) {
  EpochReport ER;
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(LogPath, Segs) || Segs.empty()) {
    ER.Error = "no log file or segment chain at " + LogPath;
    return ER;
  }

  // Split the chain at usable sidecars. The front segment anchors epoch
  // 0: from zero when the chain is complete, from its sidecar when the
  // predecessors were reclaimed.
  std::vector<EpochSlice> Epochs;
  const ChainSegment &Front = Segs.front();
  bool FrontComplete = Front.Index <= 1; // plain file (0) or segment 1
  bool FrontSeeds = Front.HasSnapshot && hasAllBlobs(Front.Snap, NumObjects);
  if (Opts.UseSnapshots && FrontSeeds) {
    Epochs.push_back({0, &Front.Snap, Front.Snap.Watermark, UINT64_MAX});
  } else if (FrontComplete) {
    Epochs.push_back({0, nullptr, 0, UINT64_MAX});
  } else if (FrontSeeds) {
    ER.Error = "records before segment " + std::to_string(Front.Index) +
               " were reclaimed, so a from-zero check cannot start; the "
               "front segment's snapshot sidecar can seed it (UseSnapshots; "
               "vyrd-check --resume or --epochs N)";
    return ER;
  } else {
    ER.Error = "records before segment " + std::to_string(Front.Index) +
               " were reclaimed and no usable snapshot sidecar covers the "
               "cut; the chain cannot seed a checker (re-record with "
               "VerifierConfig::Snapshots, or keep the full chain)";
    return ER;
  }
  if (Opts.UseSnapshots && !Opts.ResumeOnly) {
    for (size_t P = 1; P < Segs.size(); ++P) {
      const ChainSegment &Seg = Segs[P];
      // A missing/corrupt sidecar, or one lacking an object's blob,
      // simply merges the segment into the previous epoch.
      if (!Seg.HasSnapshot || !hasAllBlobs(Seg.Snap, NumObjects))
        continue;
      Epochs.back().EndSeq = Seg.Snap.Watermark;
      Epochs.push_back({P, &Seg.Snap, Seg.Snap.Watermark, UINT64_MAX});
    }
  }
  const size_t NumEpochs = Epochs.size();
  ER.Epochs = NumEpochs;

  // The (object, epoch) task matrix, claimed off an atomic cursor by a
  // small worker pool. Results land in a pre-sized grid, so workers
  // never contend on anything but the cursor.
  std::vector<SliceResult> Results(NumObjects * NumEpochs);
  std::atomic<size_t> Cursor{0};
  std::atomic<uint64_t> TasksRun{0};
  std::atomic<uint64_t> Loads{0};
  auto Worker = [&] {
    while (true) {
      size_t T = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (T >= Results.size())
        return;
      size_t O = T / NumEpochs, E = T % NumEpochs;
      bool Final = E + 1 == NumEpochs;
      if (Opts.Telem)
        Opts.Telem->gaugeAdd(Gauge::G_EpochsInFlight, 1);
      Results[T] = runSlice(static_cast<ObjectId>(O), Epochs[E], Final, Segs,
                            Factory, Opts,
                            Final ? nullptr : Epochs[E + 1].Snap, Loads);
      if (Opts.Telem) {
        Opts.Telem->gaugeSub(Gauge::G_EpochsInFlight, 1);
        Opts.Telem->count(Counter::C_EpochsChecked);
      }
      if (!Results[T].Skipped)
        TasksRun.fetch_add(1, std::memory_order_relaxed);
    }
  };
  unsigned NThreads = std::max(1u, Opts.Threads);
  if (NThreads == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(NThreads);
    for (unsigned I = 0; I < NThreads; ++I)
      Pool.emplace_back(Worker);
    for (std::thread &W : Pool)
      W.join();
  }
  ER.Tasks = TasksRun.load();

  // Stitch per object: the first epoch with a violation, a failed
  // restore or a baseline mismatch invalidates everything after it (the
  // later epochs' baselines descend from a state the bad epoch never
  // reached), so the object is re-checked serially from the last epoch
  // whose baseline is known good through the end of the chain.
  uint64_t SeqHwm = 0;
  for (size_t O = 0; O < NumObjects; ++O) {
    SliceResult *Rs = &Results[O * NumEpochs];
    for (size_t E = 0; E < NumEpochs; ++E)
      SeqHwm = std::max(SeqHwm, Rs[E].SeqHwm);
    if (Rs[0].Skipped)
      continue; // the factory does not know this object
    size_t FirstBad = NumEpochs;
    for (size_t E = 0; E < NumEpochs; ++E) {
      if (Rs[E].RestoreFailed || Rs[E].BaselineMismatch ||
          !Rs[E].Violations.empty()) {
        FirstBad = E;
        break;
      }
    }
    ObjectReport OR;
    OR.Id = static_cast<ObjectId>(O);
    if (FirstBad == NumEpochs) {
      // Every epoch clean and every stitch audited: the final epoch's
      // checker carries the cumulative verdict (sidecar blobs restore
      // the running stats, so its stats are the object's totals).
      OR.Name = Rs[NumEpochs - 1].Name;
      OR.Stats = Rs[NumEpochs - 1].Stats;
    } else {
      // Fall back past epochs whose own restore failed: their sidecar
      // cannot seed the re-check either.
      size_t From = FirstBad;
      while (From > 0 && Rs[From].RestoreFailed)
        --From;
      EpochSlice Re = Epochs[From];
      Re.EndSeq = UINT64_MAX;
      if (Re.Snap && Rs[From].RestoreFailed) {
        // Even epoch 0's sidecar is unrestorable and the chain has no
        // complete prefix to fall back to.
        Violation V;
        V.Kind = ViolationKind::VK_Instrumentation;
        V.Seq = Re.StartSeq;
        V.Message = "snapshot sidecar for segment " +
                    std::to_string(Segs[Re.SegPos].Index) +
                    " cannot restore into the object's pipeline (spec "
                    "mismatch or blob corruption)";
        OR.Name = Rs[FirstBad].Name;
        OR.Violations.push_back(V);
      } else {
        // The final epoch already ran from its baseline to the end of the
        // chain (a from-zero check is one such epoch): that run is the
        // serial re-check, so it is not repeated.
        SliceResult Serial =
            From + 1 == NumEpochs
                ? std::move(Rs[From])
                : runSlice(static_cast<ObjectId>(O), Re, /*Final=*/true,
                           Segs, Factory, Opts, nullptr, Loads);
        SeqHwm = std::max(SeqHwm, Serial.SeqHwm);
        OR.Name = Serial.Name;
        OR.Stats = Serial.Stats;
        OR.Violations = std::move(Serial.Violations);
        ++ER.SerialRechecks;
      }
    }
    OR.Records = OR.Stats.ActionsFed;
    Name Tag = OR.Name.empty() ? Name() : internName(OR.Name);
    for (Violation &V : OR.Violations) {
      V.Obj = OR.Id;
      V.Object = Tag;
    }
    ER.Report.Stats.merge(OR.Stats);
    ER.Report.Violations.insert(ER.Report.Violations.end(),
                                OR.Violations.begin(), OR.Violations.end());
    ER.Report.Objects.push_back(std::move(OR));
  }
  sortViolationsBySeq(ER.Report.Violations);
  ER.Report.LogRecords = SeqHwm;
  // Restart lag: how far behind the chain's end the cold restart began.
  if (Opts.Telem && Epochs[0].Snap)
    Opts.Telem->gaugeSet(Gauge::G_RestartLag,
                         SeqHwm > Epochs[0].StartSeq
                             ? SeqHwm - Epochs[0].StartSeq
                             : 0);
  ER.SnapshotLoads = Loads.load();
  ER.Report.Notes.push_back(
      "epoch check: " + std::to_string(NumEpochs) + " epoch(s) x " +
      std::to_string(NumObjects) + " object(s), " +
      std::to_string(ER.SerialRechecks) + " serial recheck(s)");
  return ER;
}
