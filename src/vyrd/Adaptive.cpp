//===- Adaptive.cpp - Admission-policy escalation ladder ------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Adaptive.h"

#include "vyrd/Telemetry.h"

#include <cassert>

namespace vyrd {

std::string AdaptiveController::Transition::str() const {
  std::string S = backpressurePolicyName(From);
  S += "->";
  S += backpressurePolicyName(To);
  return S;
}

AdaptiveController::AdaptiveController(const AdaptiveConfig &Cfg,
                                       BackpressurePolicy Base, bool CanSpill)
    : C(Cfg) {
  // The ladder starts at the configured policy and only ever escalates to
  // strictly more load-shedding rungs: Block defers producers, Spill
  // trades tail memory for re-read latency (needs a disk side), Shed
  // gives up completeness. De-escalation retraces the same rungs.
  Ladder.push_back(Base);
  if (Base == BackpressurePolicy::BP_Block && CanSpill)
    Ladder.push_back(BackpressurePolicy::BP_SpillToDisk);
  if (Base != BackpressurePolicy::BP_Shed)
    Ladder.push_back(BackpressurePolicy::BP_Shed);

  Policy.store(static_cast<uint8_t>(Base), std::memory_order_relaxed);
}

bool AdaptiveController::canReachShed() const {
  return dynamicPolicy() && Ladder.back() == BackpressurePolicy::BP_Shed;
}

bool AdaptiveController::canReachSpill() const {
  if (!dynamicPolicy())
    return false;
  for (size_t I = 1; I < Ladder.size(); ++I)
    if (Ladder[I] == BackpressurePolicy::BP_SpillToDisk)
      return true;
  return false;
}

void AdaptiveController::publishPolicy(BackpressurePolicy P) {
  Policy.store(static_cast<uint8_t>(P), std::memory_order_relaxed);
  if (Telem)
    Telem->gaugeSet(Gauge::G_PolicyActive, static_cast<uint64_t>(P));
}

bool AdaptiveController::observe(uint64_t LagRecords, uint64_t Seq,
                                 uint64_t NowNanos) {
  if (!dynamicPolicy())
    return false;

  // Watermarks + hold-time hysteresis. Lag between the watermarks resets
  // both hold timers: the band is the dead zone where the policy holds.
  bool Changed = false;
  if (LagRecords >= C.EscalateLagHi) {
    BelowSinceNs = 0;
    if (AboveSinceNs == 0) {
      AboveSinceNs = NowNanos ? NowNanos : 1;
    } else if (NowNanos - AboveSinceNs >= C.EscalateHoldUs * 1000 &&
               Level + 1 < Ladder.size()) {
      Transition T{Seq, LagRecords, Ladder[Level], Ladder[Level + 1], true};
      ++Level;
      publishPolicy(Ladder[Level]);
      Escalations.fetch_add(1, std::memory_order_relaxed);
      if (Telem)
        Telem->count(Counter::C_PolicyEscalations);
      {
        std::lock_guard<std::mutex> Lock(TM);
        Trans.push_back(T);
      }
      // The next rung requires a fresh full hold above the watermark.
      AboveSinceNs = NowNanos ? NowNanos : 1;
      Changed = true;
    }
  } else if (LagRecords <= C.DeescalateLagLo) {
    AboveSinceNs = 0;
    if (BelowSinceNs == 0) {
      BelowSinceNs = NowNanos ? NowNanos : 1;
    } else if (NowNanos - BelowSinceNs >= C.DeescalateHoldUs * 1000 &&
               Level > 0) {
      Transition T{Seq, LagRecords, Ladder[Level], Ladder[Level - 1], false};
      --Level;
      publishPolicy(Ladder[Level]);
      Deescalations.fetch_add(1, std::memory_order_relaxed);
      if (Telem)
        Telem->count(Counter::C_PolicyDeescalations);
      {
        std::lock_guard<std::mutex> Lock(TM);
        Trans.push_back(T);
      }
      BelowSinceNs = NowNanos ? NowNanos : 1;
      Changed = true;
    }
  } else {
    AboveSinceNs = 0;
    BelowSinceNs = 0;
  }
  return Changed;
}

std::vector<AdaptiveController::Transition>
AdaptiveController::transitions() const {
  std::lock_guard<std::mutex> Lock(TM);
  return Trans;
}

AdaptiveController::Transition AdaptiveController::lastTransition() const {
  std::lock_guard<std::mutex> Lock(TM);
  assert(!Trans.empty() && "no transition recorded yet");
  return Trans.back();
}

} // namespace vyrd
