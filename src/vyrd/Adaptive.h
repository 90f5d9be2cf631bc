//===- Adaptive.h - Admission-policy escalation ladder ----------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop admission-policy controller for the verification pipeline.
/// A static admission policy either blocks real traffic or sheds records
/// it did not have to; the controller picks the rung at runtime off the
/// live checker lag:
///
///   * Sustained lag above EscalateLagHi walks the escalation ladder one
///     rung at a time — BP_Block → BP_SpillToDisk (file-backed logs) →
///     BP_Shed — and sustained lag below DeescalateLagLo walks it back
///     down. Both directions require the condition to hold for a
///     configurable time (hysteresis), so a single bursty batch cannot
///     flap the policy. Every transition is counted in telemetry, stamped
///     into the Perfetto trace and listed in the VerifierReport.
///
/// The controller itself is passive and deterministic: the pump calls
/// observe() with the current lag and a caller-supplied clock, so unit
/// tests drive it with fake nanoseconds and no sleeps. The decision is
/// published through a plain relaxed atomic (the policy cell) that the
/// log's flusher, the pipeline's one admission point, reads on its own
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_ADAPTIVE_H
#define VYRD_ADAPTIVE_H

#include "vyrd/Backpressure.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vyrd {

class Telemetry;

/// Knobs for the policy escalation ladder (VerifierConfig::Adaptive).
/// The defaults keep it off.
struct AdaptiveConfig {
  /// Master switch (requires Backpressure.Enabled). Off = the static
  /// BackpressureConfig::Policy, bit-identical to previous releases. On =
  /// the active admission policy starts at BackpressureConfig::Policy and
  /// escalates/de-escalates along the ladder described above.
  bool Enabled = false;
  /// Lag watermarks (records) with hold times: lag must stay at or above
  /// EscalateLagHi for EscalateHoldUs before each escalation, and at or
  /// below DeescalateLagLo for DeescalateHoldUs before each
  /// de-escalation. Lag between the watermarks holds the current policy.
  uint64_t EscalateLagHi = 1 << 14;
  uint64_t DeescalateLagLo = 1 << 10;
  uint64_t EscalateHoldUs = 2000;
  uint64_t DeescalateHoldUs = 5000;
};

/// The controller instance owned by the Verifier. Construction fixes the
/// escalation ladder from the base policy and the log's capabilities;
/// observe() runs on the pump thread only, everything else is readable
/// from any thread.
class AdaptiveController {
public:
  /// One policy change, in the order it happened.
  struct Transition {
    uint64_t Seq;              ///< log frontier when the change fired
    uint64_t LagRecords;       ///< the lag that triggered it
    BackpressurePolicy From;
    BackpressurePolicy To;
    bool Escalation;           ///< false = de-escalation

    /// "block->spill" — the form the report and CI validation use.
    std::string str() const;
  };

  /// \p Base is the configured static policy (the ladder's bottom rung);
  /// \p CanSpill says whether the log can serve the BP_SpillToDisk rung
  /// (it has a log file). Ladders:
  /// Block → Spill → Shed (CanSpill), Block → Shed (memory-only),
  /// Spill → Shed, and Shed alone (nothing to escalate to).
  AdaptiveController(const AdaptiveConfig &C, BackpressurePolicy Base,
                     bool CanSpill);

  /// Publishes transitions to these gauges and counters (null = none).
  /// Call before the pipeline starts.
  void setTelemetry(Telemetry *T) { Telem = T; }

  /// Currently active admission policy. Relaxed: any thread.
  BackpressurePolicy policy() const {
    return static_cast<BackpressurePolicy>(
        Policy.load(std::memory_order_relaxed));
  }

  /// The raw cell the log subscribes to (BufferedLog::setDynamicPolicy).
  /// Stable for the controller's lifetime.
  const std::atomic<uint8_t> &policyCell() const { return Policy; }

  /// True when the ladder has anywhere to go — the condition under which
  /// the Verifier installs the policy cell and the shed classifier.
  bool dynamicPolicy() const { return Ladder.size() > 1; }
  /// True when the ladder contains BP_Shed above the base rung.
  bool canReachShed() const;
  /// True when the ladder contains BP_SpillToDisk above the base rung.
  bool canReachSpill() const;

  /// One control step, called from the pump thread after each consumed
  /// batch. \p LagRecords is the append frontier minus the consumed
  /// frontier; \p Seq is the consumed frontier (for transition
  /// attribution); \p NowNanos is a monotonic clock (injectable — tests
  /// pass fake time). \returns true when this step changed the active
  /// policy (the caller emits the trace instant).
  bool observe(uint64_t LagRecords, uint64_t Seq, uint64_t NowNanos);

  /// The transitions so far, oldest first. Any thread.
  std::vector<Transition> transitions() const;
  /// The last transition (meaningful right after observe() returned
  /// true). Pump thread only.
  Transition lastTransition() const;

  uint64_t escalations() const {
    return Escalations.load(std::memory_order_relaxed);
  }
  uint64_t deescalations() const {
    return Deescalations.load(std::memory_order_relaxed);
  }

private:
  void publishPolicy(BackpressurePolicy P);

  AdaptiveConfig C;
  Telemetry *Telem = nullptr;
  /// The escalation ladder, mildest first. Level indexes it.
  std::vector<BackpressurePolicy> Ladder;
  size_t Level = 0; // pump thread only

  std::atomic<uint8_t> Policy;
  std::atomic<uint64_t> Escalations{0};
  std::atomic<uint64_t> Deescalations{0};

  /// Hysteresis state (pump thread only).
  uint64_t AboveSinceNs = 0; ///< 0 = lag not currently >= EscalateLagHi
  uint64_t BelowSinceNs = 0; ///< 0 = lag not currently <= DeescalateLagLo

  mutable std::mutex TM;
  std::vector<Transition> Trans; // guarded by TM
};

} // namespace vyrd

#endif // VYRD_ADAPTIVE_H
