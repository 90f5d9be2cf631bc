//===- BufferedLog.h - The execution log ------------------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution log connecting the instrumented program to the checkers
/// (Sec. 4.2): "a file whose tail is kept in memory". It keeps the global
/// mutex off the instrumentation hot path (the dominant runtime cost the
/// paper measures in Table 2). Each producer thread appends into its own
/// bounded single-producer / single-consumer ring (ThreadLogShard); a
/// flusher thread drains the shards in epochs and merges the records into
/// the global append order, writes them to the log file (when one is
/// configured) and keeps them in a reader queue (unless RetainRecords is
/// off), from which readers consume in batches.
///
/// Ordering contract
/// -----------------
/// The refinement checker needs the log to be a linearization of the
/// instrumented events: if action X became visible before action Y (in
/// particular, if X's commit happened before Y's commit under the data
/// structure's locks), X must precede Y in the log. Epoch flushing alone
/// cannot provide this — two shards flushed in either order would reorder
/// causally related commits — so the global order is fixed at append time
/// by a single atomic ticket counter:
///
///  * append claims `Ticket.fetch_add(1, relaxed)` and stamps it into
///    Action::Seq. Per-object coherence guarantees that if append X
///    happens-before append Y (same thread, or across threads via the
///    lock the paper's atomicity rule already requires the hook to hold),
///    X's increment precedes Y's in the counter's modification order, so
///    ticket(X) < ticket(Y). No stronger ordering is needed from the RMW
///    itself; `relaxed` suffices.
///  * the record is published to the shard with a release store of the
///    ring head; the flusher reads the head with acquire, so the record
///    contents are visible when it drains.
///  * tickets are dense, so the flusher can (and must) emit records in
///    exactly ticket order: it holds records back until the contiguous
///    prefix is complete, then stamps them into the global order as the
///    final, dense sequence numbers. A record's sequence number therefore
///    *is* its ticket; it becomes observable to readers only at flush.
///    Density also makes reordering O(1) per record: the flusher parks
///    each drained record in a ring indexed by `Seq & Mask` (growing the
///    ring if a stalled producer ever leaves a wider gap) and emits the
///    contiguous run starting at the next expected ticket — no
///    comparisons, no heap.
///
/// Backpressure: shards are bounded. A producer whose ring is full waits
/// (spin, then yield, then short sleeps) until the flusher makes room, so
/// memory for unflushed records is capped at ShardCapacity per thread.
///
/// Thread registration: a shard is created for a thread the first time it
/// calls writer() (or append). Shards are owned by the log and outlive
/// their threads; thread ids are never reused, so a shard has exactly one
/// producer for its whole life. close() must only be called after all
/// producer threads are done appending.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_BUFFEREDLOG_H
#define VYRD_BUFFEREDLOG_H

#include "vyrd/Backpressure.h"
#include "vyrd/Log.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace vyrd {

class BufferedLog;
class Telemetry;
class TelemetryCell;

/// One thread's bounded SPSC ring. Producer: the owning thread, through
/// LogWriter::append. Consumer: the parent log's flusher thread.
class ThreadLogShard final : public LogWriter {
public:
  ThreadLogShard(BufferedLog &Parent, size_t Capacity);

  /// Producer side: claims a ticket, stamps it as the sequence number and
  /// publishes the record to the ring, waiting for space if the ring is
  /// full. Must only be called by the owning thread.
  uint64_t append(Action A) override;

private:
  friend class BufferedLog;

  /// Consumer side (flusher only): moves all published records out into
  /// the parent's reorder ring. \returns how many were moved.
  size_t drain();

  BufferedLog &Parent;
  std::vector<Action> Slots;
  const uint64_t Mask;
  /// Monotonic positions; slot = position & Mask. Head is written by the
  /// producer (release) and read by the flusher (acquire); Tail is the
  /// reverse. CachedTail lets the producer check for space without
  /// touching the shared Tail in the common case.
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
  uint64_t CachedTail = 0;
  /// The owning thread's telemetry cell, resolved lazily on first append
  /// after a hub is attached (BufferedLog::setTelemetry). Producer-side
  /// only.
  TelemetryCell *TC = nullptr;
};

/// The execution log. See the file comment for the ordering and
/// registration contract. Appends may come from many threads; records are
/// consumed in append order by a single reader.
class BufferedLog final {
public:
  struct Options {
    /// Ring capacity per producer thread, in records; rounded up to a
    /// power of two. Bounds the memory held in unflushed shards and the
    /// distance a producer can run ahead of the flusher.
    size_t ShardCapacity = 1024;
    /// When non-empty, the flusher serializes every flushed batch to this
    /// file (readable with loadLogFile). With Backpressure.SegmentBytes >
    /// 0 the output rotates into a segment chain instead of one file.
    std::string FilePath;
    /// Keep flushed records in memory for next()/tryNext()/nextBatch().
    /// Disable for logging-only runs where nothing consumes the log (the
    /// file, when set, is then the only sink, and the readers only ever
    /// see end-of-log after close()).
    bool RetainRecords = true;
    /// Bound + policy for the merged reader queue. The shard rings are
    /// already bounded (ShardCapacity per thread); this bounds the
    /// downstream stage the flusher feeds. BP_Block parks the *flusher*
    /// (shards then fill and producers hit the ring-full backoff, so the
    /// pressure propagates); BP_SpillToDisk needs FilePath and lets the
    /// reader re-read over-limit records from disk; BP_Shed drops
    /// observer executions from the queue only (the file, when present,
    /// stays complete).
    BackpressureConfig Backpressure;
  };

  BufferedLog();
  explicit BufferedLog(Options O);
  ~BufferedLog();

  BufferedLog(const BufferedLog &) = delete;
  BufferedLog &operator=(const BufferedLog &) = delete;

  /// False iff Options::FilePath was set and the file could not be opened.
  bool valid() const { return Valid; }

  /// Thread-safe append from any thread: resolves the caller's shard and
  /// appends through it, returning the record's sequence number. Hot
  /// paths should cache writer() instead.
  uint64_t append(Action A);

  /// The append handle the calling thread should use: its own shard,
  /// registered on first use. The reference stays valid until the log is
  /// destroyed, but must only be used by the thread that called writer().
  LogWriter &writer();

  /// Marks the log complete and joins the flusher. After close(), next()
  /// drains the remaining records and then returns false. Idempotent.
  /// Must not race with appends: call it after the producers are done.
  void close();

  /// Blocks until a record is available or the log is closed and drained.
  /// \returns false on end of log.
  bool next(Action &Out);

  /// Non-blocking variant: returns false with \p End=false when no record
  /// is ready yet, and false with \p End=true at end of log.
  bool tryNext(Action &Out, bool &End);

  /// Batch consumption: clears \p Out, blocks until at least one record is
  /// available (or end of log), then moves up to \p Max ready records into
  /// \p Out without further blocking. \returns false (with \p Out empty)
  /// only at end of log. One wakeup and one lock round trip cover the
  /// whole batch.
  bool nextBatch(std::vector<Action> &Out, size_t Max);

  /// Number of records appended so far.
  uint64_t appendCount() const;

  /// Bytes of serialized log produced so far (0 without a file).
  uint64_t byteCount() const;

  /// Admission counters of the bounded reader queue, merged with the
  /// segment sink's lifecycle counters. All zero when unbounded.
  BackpressureStats backpressureStats() const;

  /// Attaches a telemetry hub: appends count Counter::C_LogAppends (with
  /// sampled Histo::H_AppendNs latencies) and the flusher feeds the
  /// flush-batch/occupancy metrics. Attach before producers start and
  /// keep \p T alive until the log is destroyed; pass nullptr to detach.
  void setTelemetry(Telemetry *T);

  /// Subscribes the bounded stage to a dynamic admission policy: every
  /// admission decision reads the current BackpressurePolicy ordinal from
  /// \p Cell instead of the static BackpressureConfig::Policy. The
  /// AdaptiveController owns the cell (its escalation state); it must
  /// outlive the log. Install before producers start; null (the default)
  /// keeps the static policy.
  void setDynamicPolicy(const std::atomic<uint8_t> *Cell);

  /// Dynamic-policy nudge: called (from the pump thread) right after the
  /// installed policy cell changed, so a flusher parked on BP_Block's
  /// space wait re-evaluates under the new rung instead of waiting for
  /// the next room notification.
  void onPolicyChange();

  /// Installs the observer classifier the BP_Shed policy consults (see
  /// ShedFilter::setClassifier). Must be called before producers start;
  /// without a classifier BP_Shed sheds nothing.
  void setShedClassifier(std::function<bool(const Action &)> Fn);

  /// Checked-prefix reclamation: every record with Seq < \p Watermark has
  /// been fully checked and will never be read again, so covered segment
  /// files are deleted (segmented logs only). Called from the
  /// verification (pump) thread.
  void reclaimCheckedPrefix(uint64_t Watermark);

  /// Moves segment rotations performed since the last call into \p Out
  /// (appended, oldest first) — the cut points the Verifier snapshots
  /// checker state at (docs/SNAPSHOTS.md). Only segmented logs produce
  /// cuts. Called from the verification (pump) thread.
  void takeSegmentCuts(std::vector<SegmentCut> &Out);

  /// Number of producer threads that have registered a shard.
  size_t shardCount() const;

private:
  friend class ThreadLogShard;

  ThreadLogShard &shardForCurrentThread();
  void flusherMain();
  /// True when the reader must track the delivery frontier and be able to
  /// re-read over-limit records from the file: the static policy is
  /// BP_SpillToDisk, or a dynamic-policy cell is installed and could
  /// escalate into it mid-run (frontier bookkeeping must be on from the
  /// first record, or an escalation would re-deliver the whole file).
  bool spillCapable() const;
  /// Pushes one emit round's records [\p First, \p S) into the reader
  /// queue under the configured admission policy.
  void enqueueEmitted(uint64_t First, uint64_t S);
  bool readyLocked() const;
  bool tryNextLocked(Action &Out, bool &End);
  /// next() with the reader-queue lock already held in \p Lock.
  bool nextLocked(std::unique_lock<std::mutex> &Lock, Action &Out);
  bool spillNextLocked(Action &Out);
  void popFrontLocked(Action &Out);
  /// Drains every shard into the reorder ring. \returns records drained.
  size_t drainShards();
  /// Parks one drained record in the reorder ring at `Seq & Mask`,
  /// growing the ring when a stalled producer has left a gap wider than
  /// its current capacity. Flusher thread only.
  void park(Action &&A);
  /// Emits the contiguous ticket run starting at the next expected
  /// sequence number into the global order (file and/or reader queue).
  /// \returns records emitted.
  size_t emitReady();

  struct Impl;
  std::unique_ptr<Impl> I;
  bool Valid = true;
};

} // namespace vyrd

#endif // VYRD_BUFFEREDLOG_H
