//===- BufferedLog.cpp - The execution log --------------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"

#include "vyrd/Instrument.h"
#include "vyrd/Ring.h"
#include "vyrd/Serialize.h"
#include "vyrd/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>

using namespace vyrd;

namespace {

/// Producer-side wait while the shard ring is full: a couple of yields,
/// then short sleeps so a starved flusher gets CPU even on one core.
void backoff(unsigned Round) {
  if (Round < 8)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Each BufferedLog gets a process-unique id; ids are never reused, so the
/// thread-local shard cache below can never hit a stale entry for a log
/// that was destroyed and another allocated at the same address.
std::atomic<uint64_t> NextLogInstanceId{1};

struct ShardCacheEntry {
  uint64_t LogId = 0;
  ThreadLogShard *Shard = nullptr;
};
constexpr size_t ShardCacheWays = 4;
/// Direct-mapped per-thread cache of (log instance -> this thread's
/// shard), so the append fast path avoids the registry mutex.
thread_local ShardCacheEntry ShardCache[ShardCacheWays];

} // namespace

struct BufferedLog::Impl {
  Options Opts;
  uint64_t InstanceId = 0;

  /// The attached hub and the adaptive controller's policy cell (see the
  /// setters in BufferedLog.h); null when not installed.
  std::atomic<Telemetry *> Telem{nullptr};
  std::atomic<const std::atomic<uint8_t> *> DynPolicy{nullptr};

  /// The attached hub, or null. Hot paths should read it once and cache
  /// the per-thread cell.
  Telemetry *telemetry() const {
    return Telem.load(std::memory_order_acquire);
  }
  /// The admission policy currently in force: the dynamic cell's value
  /// when one is installed, the static configuration otherwise.
  BackpressurePolicy activePolicy() const {
    const std::atomic<uint8_t> *C = DynPolicy.load(std::memory_order_acquire);
    return C ? static_cast<BackpressurePolicy>(
                   C->load(std::memory_order_relaxed))
             : Opts.Backpressure.Policy;
  }
  /// Whether a dynamic policy cell is installed (the policy can change
  /// mid-run; see BufferedLog::spillCapable()).
  bool hasDynamicPolicy() const {
    return DynPolicy.load(std::memory_order_acquire) != nullptr;
  }

  /// The global order: every append claims one ticket (see BufferedLog.h
  /// for why a relaxed RMW is enough).
  std::atomic<uint64_t> Tickets{0};
  std::atomic<bool> Closed{false};

  /// Registered shards, indexed by dense thread id. Grown under RegistryM;
  /// shards live until the log is destroyed. RegisteredShards counts the
  /// non-null entries so the flusher can skip the mutex when nothing new
  /// registered since its last snapshot.
  mutable std::mutex RegistryM;
  std::vector<std::unique_ptr<ThreadLogShard>> ShardByTid;
  std::atomic<size_t> RegisteredShards{0};
  std::vector<ThreadLogShard *> ShardScratch; // flusher-only snapshot

  /// Flusher state (flusher thread only).
  std::thread Flusher;
  uint64_t SeqNext = 0; // next ticket to enter the global order
  /// The reorder ring: drained records parked at `Seq & ReorderMask`
  /// until the contiguous run starting at SeqNext is complete.
  std::vector<Action> Reorder;
  std::vector<uint8_t> Parked;
  uint64_t ReorderMask = 0;
  /// The disk side (FilePath mode): file(s), encoder, rotation.
  SegmentSink Sink;
  bool HasFile = false;

  /// The global, merged order the readers consume.
  std::mutex QM;
  std::condition_variable QCV;
  /// The flusher parks here in BP_Block mode until the reader makes room.
  std::condition_variable QSpaceCV;
  ChunkQueue<Action> Q; // chunk-recycling: see Ring.h
  bool Finished = false; // flusher exited; Q holds everything remaining

  /// Backpressure state, guarded by QM (admission happens where the
  /// flusher pushes into Q; the shard rings have their own bound).
  ShedFilter Shed;
  BackpressureStats Stats;
  uint64_t QBytes = 0; // estimated bytes Q pins (BP enabled only)
  /// Spill bookkeeping: Delivered = next seq the reader hands out;
  /// EmittedSeq = every record below it has reached the sink, published
  /// by the flusher at the end of each emit round (under QM, so readers
  /// see queue and watermark consistently).
  uint64_t Delivered = 0;
  std::atomic<uint64_t> EmittedSeq{0};
  std::unique_ptr<LogFileReader> SpillReader;
  uint64_t SpillNextSeq = 0;
  bool SpillFailed = false; // latched on corrupt spilled region
  /// Seq ranges [first, second) shed from the queue while spill-capable.
  /// They exist on disk (the file is the complete witness), so the spill
  /// catch-up reader must skip them or a later escalation into spill would
  /// resurrect records the shed filter dropped. Pruned as Delivered
  /// passes. Guarded by QM.
  std::vector<std::pair<uint64_t, uint64_t>> ShedGaps;

  /// Segment telemetry deltas already forwarded (pump thread only).
  uint64_t SegCreatedSeen = 0;
  uint64_t SegReclaimedSeen = 0;

  /// Serializes close() so it is idempotent.
  std::mutex CloseM;
  bool CloseDone = false;
};

//===----------------------------------------------------------------------===//
// ThreadLogShard
//===----------------------------------------------------------------------===//

ThreadLogShard::ThreadLogShard(BufferedLog &Parent, size_t Capacity)
    : Parent(Parent), Slots(std::bit_ceil(std::max<size_t>(Capacity, 2))),
      Mask(Slots.size() - 1) {}

uint64_t ThreadLogShard::append(Action A) {
  assert(!Parent.I->Closed.load(std::memory_order_relaxed) &&
         "append after close");
  uint64_t H = Head.load(std::memory_order_relaxed);
  // Latency sampling reuses the already-loaded ring position instead of a
  // separate tick counter: every 64th append per shard takes two clock
  // reads, the rest pay nothing.
  uint64_t T0 = 0;
  if (telemetryCompiledIn()) {
    if (!TC)
      if (Telemetry *T = Parent.I->telemetry())
        TC = &T->cell();
    if (TC && (H & 63) == 0)
      T0 = telemetryNowNanos();
  }
  if (H - CachedTail > Mask) {
    CachedTail = Tail.load(std::memory_order_acquire);
    if (H - CachedTail > Mask) {
      if (telemetryCompiledIn() && TC)
        TC->count(Counter::C_AppendStalls);
      for (unsigned Round = 0; H - CachedTail > Mask; ++Round) {
        backoff(Round); // ring full: wait for the flusher to make room
        CachedTail = Tail.load(std::memory_order_acquire);
      }
    }
  }
  // Claim the record's place in the global order only once a slot is
  // certain, so a producer never stalls between ticket and publish longer
  // than the store below takes.
  uint64_t Ticket =
      Parent.I->Tickets.fetch_add(1, std::memory_order_relaxed);
  A.Seq = Ticket;
  Slots[H & Mask] = std::move(A);
  Head.store(H + 1, std::memory_order_release);
  if (telemetryCompiledIn() && TC) {
    TC->count(Counter::C_LogAppends);
    if (T0)
      TC->record(Histo::H_AppendNs, telemetryNowNanos() - T0);
  }
  return Ticket;
}

size_t ThreadLogShard::drain() {
  uint64_t T = Tail.load(std::memory_order_relaxed);
  uint64_t H = Head.load(std::memory_order_acquire);
  size_t N = static_cast<size_t>(H - T);
  for (; T != H; ++T)
    Parent.park(std::move(Slots[T & Mask]));
  if (N)
    Tail.store(T, std::memory_order_release);
  return N;
}

//===----------------------------------------------------------------------===//
// BufferedLog
//===----------------------------------------------------------------------===//

BufferedLog::BufferedLog() : BufferedLog(Options()) {}

BufferedLog::BufferedLog(Options O) : I(std::make_unique<Impl>()) {
  I->Opts = std::move(O);
  I->InstanceId =
      NextLogInstanceId.fetch_add(1, std::memory_order_relaxed);
  // Big enough that the flusher only grows it if a producer stalls
  // between taking a ticket and publishing while others run far ahead.
  I->Reorder.resize(std::bit_ceil(std::max<size_t>(
      2 * std::bit_ceil(std::max<size_t>(I->Opts.ShardCapacity, 2)), 16)));
  I->Parked.assign(I->Reorder.size(), 0);
  I->ReorderMask = I->Reorder.size() - 1;
  if (!I->Opts.FilePath.empty()) {
    // Plain file or rotated segment chain, header(s) included — see
    // SegmentSink (docs/LOGFORMAT.md).
    Valid = I->Sink.open(I->Opts.FilePath,
                         I->Opts.Backpressure.SegmentBytes);
    I->HasFile = Valid;
  }
  I->Flusher = std::thread([this] { flusherMain(); });
}

BufferedLog::~BufferedLog() { close(); }

ThreadLogShard &BufferedLog::shardForCurrentThread() {
  ThreadId Tid = currentTid();
  std::lock_guard Lock(I->RegistryM);
  if (I->ShardByTid.size() <= Tid)
    I->ShardByTid.resize(Tid + 1);
  if (!I->ShardByTid[Tid]) {
    I->ShardByTid[Tid] =
        std::make_unique<ThreadLogShard>(*this, I->Opts.ShardCapacity);
    I->RegisteredShards.fetch_add(1, std::memory_order_release);
  }
  return *I->ShardByTid[Tid];
}

LogWriter &BufferedLog::writer() {
  ShardCacheEntry &E = ShardCache[I->InstanceId % ShardCacheWays];
  if (E.LogId == I->InstanceId)
    return *E.Shard;
  ThreadLogShard &S = shardForCurrentThread();
  E.LogId = I->InstanceId;
  E.Shard = &S;
  return S;
}

uint64_t BufferedLog::append(Action A) { return writer().append(std::move(A)); }

size_t BufferedLog::shardCount() const {
  std::lock_guard Lock(I->RegistryM);
  size_t N = 0;
  for (const auto &S : I->ShardByTid)
    N += S != nullptr;
  return N;
}

size_t BufferedLog::drainShards() {
  // Re-snapshot only when a thread registered since the last round; the
  // count only grows, so a stale snapshot just means one extra check.
  if (I->ShardScratch.size() !=
      I->RegisteredShards.load(std::memory_order_acquire)) {
    std::lock_guard Lock(I->RegistryM);
    I->ShardScratch.clear();
    for (const auto &S : I->ShardByTid)
      if (S)
        I->ShardScratch.push_back(S.get());
  }
  size_t Drained = 0;
  for (ThreadLogShard *S : I->ShardScratch)
    Drained += S->drain();
  return Drained;
}

void BufferedLog::park(Action &&A) {
  if (A.Seq - I->SeqNext >= I->Reorder.size()) {
    // A producer stalled between ticket and publish while others ran more
    // than a ring's worth ahead. Grow and re-park by each record's own
    // (dense, unique) ticket.
    size_t NewSize =
        std::bit_ceil<uint64_t>(A.Seq - I->SeqNext + 1) * 2;
    std::vector<Action> NewReorder(NewSize);
    std::vector<uint8_t> NewParked(NewSize, 0);
    for (size_t Slot = 0; Slot != I->Reorder.size(); ++Slot)
      if (I->Parked[Slot]) {
        Action &Old = I->Reorder[Slot];
        NewParked[Old.Seq & (NewSize - 1)] = 1;
        NewReorder[Old.Seq & (NewSize - 1)] = std::move(Old);
      }
    I->Reorder = std::move(NewReorder);
    I->Parked = std::move(NewParked);
    I->ReorderMask = NewSize - 1;
    if (telemetryCompiledIn())
      if (Telemetry *T = I->telemetry())
        T->count(Counter::C_ReorderGrows);
  }
  size_t Slot = A.Seq & I->ReorderMask;
  I->Parked[Slot] = 1;
  I->Reorder[Slot] = std::move(A);
}

bool BufferedLog::spillCapable() const {
  const BackpressureConfig &BP = I->Opts.Backpressure;
  return BP.Enabled && I->HasFile && I->Opts.RetainRecords &&
         (BP.Policy == BackpressurePolicy::BP_SpillToDisk ||
          I->hasDynamicPolicy());
}

void BufferedLog::enqueueEmitted(uint64_t First, uint64_t S) {
  const BackpressureConfig &BP = I->Opts.Backpressure;
  Telemetry *T = I->telemetry();
  std::unique_lock Lock(I->QM);
  for (uint64_t Ti = First; Ti != S; ++Ti) {
    Action &A = I->Reorder[Ti & I->ReorderMask];
    if (BP.Enabled) {
      bool Admit = true;
      bool Blocked = false;
      uint64_t W0 = 0;
      // The policy is re-read each admission attempt: a dynamic-policy
      // cell (adaptive escalation) may change it while the flusher is
      // parked, and the record must then be re-decided under the new
      // policy rather than admitted as if nothing changed.
      for (;;) {
        BackpressurePolicy P = I->activePolicy();
        bool Over = I->Q.size() >= BP.MaxPendingRecords;
        if (P == BackpressurePolicy::BP_Shed || I->hasDynamicPolicy()) {
          // With a dynamic policy the filter is consulted under every
          // rung so open shed windows close whole: continuation records
          // of a shed execution drop regardless of the current rung (the
          // filter ignores OverLimit inside a window).
          if (I->Shed.shouldShed(A, Over &&
                                        P == BackpressurePolicy::BP_Shed)) {
            // Dropped from the queue only; the file (when present) stays
            // complete for post-mortem re-checking.
            ++I->Stats.ShedRecords;
            if (telemetryCompiledIn() && T)
              T->count(Counter::C_ShedRecords);
            if (spillCapable()) {
              // The record is on disk; the catch-up reader must not
              // resurrect it if we later escalate into spill.
              if (!I->ShedGaps.empty() &&
                  I->ShedGaps.back().second == A.Seq)
                ++I->ShedGaps.back().second;
              else
                I->ShedGaps.emplace_back(A.Seq, A.Seq + 1);
            }
            Admit = false;
            break;
          }
          if (P == BackpressurePolicy::BP_Shed)
            break; // not shed: admit unconditionally under BP_Shed
        }
        if (P == BackpressurePolicy::BP_SpillToDisk && I->HasFile) {
          if (Over) {
            // Already at the sink; the reader re-reads the gap from disk.
            ++I->Stats.SpilledRecords;
            if (telemetryCompiledIn() && T)
              T->count(Counter::C_SpilledRecords);
            Admit = false;
          }
          break;
        }
        if (!Over)
          break;
        // BP_Block (and BP_SpillToDisk without a file): park the flusher.
        // Shard rings then fill and producers hit the ring-full backoff,
        // which is how the bound propagates to the hot path.
        if (!Blocked) {
          Blocked = true;
          ++I->Stats.BlockedAppends;
          W0 = telemetryNowNanos();
        }
        // Records pushed earlier in this batch are consumable but the
        // batch-end QCV notify has not happened yet; wake any reader
        // parked on what it last saw as an empty queue before this side
        // goes to sleep, or neither ever wakes.
        I->QCV.notify_all();
        I->QSpaceCV.wait(Lock, [&] {
          return I->Q.size() < BP.MaxPendingRecords ||
                 I->activePolicy() != BackpressurePolicy::BP_Block;
        });
      }
      if (Blocked) {
        uint64_t Waited = telemetryNowNanos() - W0;
        I->Stats.BlockedNanos += Waited;
        if (telemetryCompiledIn() && T) {
          T->count(Counter::C_BlockedAppends);
          T->record(Histo::H_BlockedNs, Waited);
        }
      }
      if (!Admit)
        continue;
      size_t FP = actionFootprintBytes(A);
      I->QBytes += FP;
      I->Stats.PendingRecordsHwm =
          std::max<uint64_t>(I->Stats.PendingRecordsHwm, I->Q.size() + 1);
      I->Stats.TailBytesHwm =
          std::max<uint64_t>(I->Stats.TailBytesHwm, I->QBytes);
      if (telemetryCompiledIn() && T) {
        T->gaugeAdd(Gauge::G_PendingRecords, 1);
        T->gaugeAdd(Gauge::G_TailBytes, FP);
      }
    }
    I->Q.push_back(std::move(A));
  }
  // Publish the disk watermark under QM so readers never see a record
  // "on disk" that this round is still deciding to queue or spill.
  I->EmittedSeq.store(S, std::memory_order_release);
  Lock.unlock();
  I->QCV.notify_one();
}

size_t BufferedLog::emitReady() {
  const uint64_t First = I->SeqNext;
  uint64_t S = First;
  // The whole contiguous run goes out at once, up to one reorder window.
  const uint64_t Limit = I->Reorder.size();
  while (S - First < Limit && I->Parked[S & I->ReorderMask])
    ++S;
  size_t K = static_cast<size_t>(S - First);
  if (K == 0)
    return 0;
  if (I->HasFile) {
    // All records reach the disk log, including ones the queue admission
    // below will shed or spill (the file is the complete witness).
    for (uint64_t T = First; T != S; ++T)
      I->Sink.write(I->Reorder[T & I->ReorderMask]);
    I->Sink.flushPending();
  }
  if (I->Opts.RetainRecords) {
    enqueueEmitted(First, S);
  } else {
    std::lock_guard Lock(I->QM);
    I->EmittedSeq.store(S, std::memory_order_release);
  }
  for (uint64_t T = First; T != S; ++T)
    I->Parked[T & I->ReorderMask] = 0;
  I->SeqNext = S;
  return K;
}

void BufferedLog::flusherMain() {
  unsigned Idle = 0;
  TelemetryCell *TC = nullptr;
  for (;;) {
    // Order matters: observe Closed before the final drain, so everything
    // appended before close() is captured by this round's drain.
    bool ClosedNow = I->Closed.load(std::memory_order_acquire);
    size_t Drained = drainShards();
    size_t Emitted = emitReady();
    if (telemetryCompiledIn()) {
      if (!TC)
        if (Telemetry *T = I->telemetry())
          TC = &T->cell();
      if (TC && Emitted) {
        TC->count(Counter::C_FlushBatches);
        TC->count(Counter::C_FlushedRecords, Emitted);
        TC->record(Histo::H_FlushBatch, Emitted);
        // Occupancy after the merge: tickets issued but not yet in the
        // global order (parked, unpublished or undrained records).
        TC->record(Histo::H_ReorderOccupancy,
                   I->Tickets.load(std::memory_order_relaxed) -
                       I->SeqNext);
      }
    }
    if (ClosedNow &&
        I->SeqNext == I->Tickets.load(std::memory_order_acquire))
      break;
    if (Drained == 0 && Emitted == 0)
      backoff(Idle++);
    else
      Idle = 0;
  }
  if (I->HasFile)
    I->Sink.sync();
  {
    std::lock_guard Lock(I->QM);
    I->Finished = true;
  }
  I->QCV.notify_all();
}

void BufferedLog::close() {
  std::lock_guard Lock(I->CloseM);
  if (I->CloseDone)
    return;
  I->CloseDone = true;
  I->Closed.store(true, std::memory_order_release);
  I->Flusher.join();
}

void BufferedLog::popFrontLocked(Action &Out) {
  Out = std::move(I->Q.front());
  I->Q.pop_front();
  const BackpressureConfig &BP = I->Opts.Backpressure;
  if (BP.Enabled) {
    size_t FP = actionFootprintBytes(Out);
    I->QBytes -= std::min<uint64_t>(FP, I->QBytes);
    if (Telemetry *T = I->telemetry(); telemetryCompiledIn() && T) {
      T->gaugeSub(Gauge::G_PendingRecords, 1);
      T->gaugeSub(Gauge::G_TailBytes, FP);
    }
    I->QSpaceCV.notify_one();
    // Monotone: a stale pop (a record the spill reader already
    // delivered from disk while its producer was still blocked) must
    // not rewind the frontier, or the next queued record is delivered
    // twice.
    if (spillCapable() && Out.Seq + 1 > I->Delivered) {
      I->Delivered = Out.Seq + 1;
      if (I->SpillReader)
        I->SpillReader.reset(); // stale: positioned inside a finished gap
      while (!I->ShedGaps.empty() &&
             I->ShedGaps.front().second <= I->Delivered)
        I->ShedGaps.erase(I->ShedGaps.begin());
    }
  }
}

bool BufferedLog::spillNextLocked(Action &Out) {
  // The record is at the sink (published via EmittedSeq only after the
  // sink write), at worst still in stdio buffers, which sync() pushes
  // down.
  if (!I->SpillReader || I->SpillNextSeq != I->Delivered) {
    I->Sink.sync();
    auto R =
        std::make_unique<LogFileReader>(I->Sink.pathForSeq(I->Delivered));
    R->setTailing(true);
    if (!R->valid())
      return false;
    I->SpillReader = std::move(R);
    I->SpillNextSeq = I->Delivered;
  }
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    Action A;
    while (I->SpillReader->next(A)) {
      I->SpillNextSeq = A.Seq + 1;
      if (A.Seq < I->Delivered)
        continue; // opened at a segment boundary before the gap
      while (!I->ShedGaps.empty() && I->ShedGaps.front().second <= A.Seq)
        I->ShedGaps.erase(I->ShedGaps.begin());
      if (!I->ShedGaps.empty() && A.Seq >= I->ShedGaps.front().first) {
        // Shed while spill-capable: on disk but deliberately dropped from
        // the online stream. Skip, but advance the frontier past it.
        I->Delivered = A.Seq + 1;
        continue;
      }
      // On-disk seqs are dense, so every one is either delivered here or
      // skipped as a shed gap above; the frontier never strands.
      I->Delivered = A.Seq + 1;
      Out = std::move(A);
      return true;
    }
    if (I->SpillReader->malformed()) {
      std::fprintf(stderr,
                   "vyrd: spill re-read failed (malformed log near seq "
                   "%llu); online checking truncated\n",
                   static_cast<unsigned long long>(I->Delivered));
      I->SpillReader.reset();
      I->SpillFailed = true;
      return false;
    }
    I->Sink.sync(); // the record may still be buffered; retry once synced
  }
  return false;
}

bool BufferedLog::readyLocked() const {
  if (!I->Q.empty())
    return true;
  return spillCapable() && !I->SpillFailed &&
         I->Delivered < I->EmittedSeq.load(std::memory_order_acquire);
}

bool BufferedLog::tryNextLocked(Action &Out, bool &End) {
  if (!spillCapable()) {
    if (!I->Q.empty()) {
      popFrontLocked(Out);
      End = false;
      return true;
    }
    End = I->Finished;
    return false;
  }
  // Spill mode: deliver strictly in sequence order, preferring the queue
  // and filling gaps (spilled regions) from the sink's file(s).
  while (!I->Q.empty() && I->Q.front().Seq < I->Delivered) {
    Action Drop;
    popFrontLocked(Drop); // already delivered from disk
  }
  if (!I->Q.empty() && I->Q.front().Seq == I->Delivered) {
    popFrontLocked(Out);
    End = false;
    return true;
  }
  if (!I->SpillFailed &&
      I->Delivered < I->EmittedSeq.load(std::memory_order_acquire)) {
    End = false;
    return spillNextLocked(Out); // false = not visible yet, caller retries
  }
  End = I->Finished && I->Q.empty();
  return false;
}

bool BufferedLog::nextLocked(std::unique_lock<std::mutex> &Lock,
                             Action &Out) {
  while (true) {
    I->QCV.wait(Lock, [&] { return readyLocked() || I->Finished; });
    bool End = false;
    if (tryNextLocked(Out, End))
      return true;
    if (End)
      return false;
    // Spill data momentarily invisible (stdio buffering around a
    // rotation); spillNextLocked has synced, so retrying converges.
  }
}

bool BufferedLog::next(Action &Out) {
  std::unique_lock Lock(I->QM);
  return nextLocked(Lock, Out);
}

bool BufferedLog::tryNext(Action &Out, bool &End) {
  std::unique_lock Lock(I->QM);
  return tryNextLocked(Out, End);
}

bool BufferedLog::nextBatch(std::vector<Action> &Out, size_t Max) {
  Out.clear();
  Max = std::max<size_t>(Max, 1);
  std::unique_lock Lock(I->QM);
  Action A;
  if (spillCapable()) {
    // Record by record: the spill path fills disk gaps in sequence order.
    if (!nextLocked(Lock, A))
      return false;
    Out.push_back(std::move(A));
    bool End = false;
    while (Out.size() < Max && tryNextLocked(A, End))
      Out.push_back(std::move(A));
    return true;
  }
  I->QCV.wait(Lock, [&] { return !I->Q.empty() || I->Finished; });
  while (!I->Q.empty() && Out.size() < Max) {
    popFrontLocked(A);
    Out.push_back(std::move(A));
  }
  return !Out.empty();
}

uint64_t BufferedLog::appendCount() const {
  return I->Tickets.load(std::memory_order_acquire);
}

uint64_t BufferedLog::byteCount() const {
  return I->HasFile ? I->Sink.bytesWritten() : 0;
}

BackpressureStats BufferedLog::backpressureStats() const {
  std::lock_guard Lock(I->QM);
  BackpressureStats S = I->Stats;
  if (I->HasFile)
    S.merge(I->Sink.stats());
  return S;
}

void BufferedLog::setTelemetry(Telemetry *T) {
  I->Telem.store(T, std::memory_order_release);
}

void BufferedLog::setDynamicPolicy(const std::atomic<uint8_t> *Cell) {
  I->DynPolicy.store(Cell, std::memory_order_release);
}

void BufferedLog::setShedClassifier(std::function<bool(const Action &)> Fn) {
  std::lock_guard Lock(I->QM);
  I->Shed.setClassifier(std::move(Fn));
}

void BufferedLog::onPolicyChange() {
  // A policy transition can strand the flusher parked on QSpaceCV under a
  // predicate the new policy would decide differently; wake it to
  // re-decide. Taking QM orders the wakeup after the cell store.
  {
    std::lock_guard Lock(I->QM);
  }
  I->QSpaceCV.notify_all();
  I->QCV.notify_all();
}

void BufferedLog::takeSegmentCuts(std::vector<SegmentCut> &Out) {
  if (I->HasFile && I->Opts.Backpressure.SegmentBytes)
    I->Sink.drainCuts(Out);
}

void BufferedLog::reclaimCheckedPrefix(uint64_t Watermark) {
  const BackpressureConfig &BP = I->Opts.Backpressure;
  if (!I->HasFile || !BP.SegmentBytes)
    return;
  if (BP.ReclaimSegments)
    I->Sink.reclaimThrough(Watermark);
  if (Telemetry *T = I->telemetry(); telemetryCompiledIn() && T) {
    T->gaugeSet(Gauge::G_SegmentsLive, I->Sink.liveSegments());
    BackpressureStats S = I->Sink.stats();
    if (S.SegmentsCreated > I->SegCreatedSeen) {
      T->count(Counter::C_SegmentsCreated,
               S.SegmentsCreated - I->SegCreatedSeen);
      I->SegCreatedSeen = S.SegmentsCreated;
    }
    if (S.SegmentsReclaimed > I->SegReclaimedSeen) {
      T->count(Counter::C_SegmentsReclaimed,
               S.SegmentsReclaimed - I->SegReclaimedSeen);
      I->SegReclaimedSeen = S.SegmentsReclaimed;
    }
  }
}
