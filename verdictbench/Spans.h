//===- Spans.h - In-memory span recorder --------------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A span covers one call from the benchmark's own code into a layer of
/// the system (a harness run, a log append, Verifier::finish, an epoch
/// check, ...). Spans live in memory while the benchmark runs and are
/// written out once at the end as Chrome/Perfetto trace-event JSON, so
/// recording costs one clock read per boundary and no I/O.
///
/// Hot boundaries (one log append, one instrumented operation) are
/// sampled: such a span carries a Weight, the number of calls it stands
/// for, and the stage ledger extrapolates its duration by that weight.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_VERDICTBENCH_SPANS_H
#define VYRD_VERDICTBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace verdictbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string Name;
  uint64_t Start = 0;
  uint64_t End = 0;
  /// Index of the enclosing span, or -1 for a root.
  int64_t Parent = -1;
  /// Calls this (sampled) span stands for; 1 when every call is recorded.
  uint32_t Weight = 1;
  /// Small per-thread lane number (0 = the benchmark's main thread).
  uint32_t Lane = 0;
};

/// Thread-safe span store. Disabled stores record nothing and return -1
/// ids, so call sites need no branches of their own.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On) {}

  bool on() const { return On; }

  int64_t open(const char *Name, int64_t Parent, uint32_t Lane = 0) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> G(M);
    Spans.push_back({Name, nowNs(), 0, Parent, 1, Lane});
    return static_cast<int64_t>(Spans.size() - 1);
  }

  void close(int64_t Id) {
    if (Id < 0)
      return;
    uint64_t T = nowNs();
    std::lock_guard<std::mutex> G(M);
    Spans[static_cast<size_t>(Id)].End = T;
  }

  /// Records an already-timed span (sampled calls, other threads).
  void add(const char *Name, uint64_t Start, uint64_t End, int64_t Parent,
           uint32_t Weight, uint32_t Lane) {
    if (!On)
      return;
    std::lock_guard<std::mutex> G(M);
    Spans.push_back({Name, Start, End, Parent, Weight, Lane});
  }

  /// Copy of the spans recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> G(M);
    return Spans;
  }

  /// Self time of every span: its duration minus the union of the
  /// intervals its children cover (children on several lanes may
  /// overlap; the union counts shared time once).
  static std::vector<uint64_t> selfTimes(const std::vector<Span> &S) {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(S.size());
    for (const Span &X : S)
      if (X.Parent >= 0)
        Kids[static_cast<size_t>(X.Parent)].push_back({X.Start, X.End});
    std::vector<uint64_t> Self(S.size());
    for (size_t I = 0; I < S.size(); ++I) {
      auto &K = Kids[I];
      std::sort(K.begin(), K.end());
      uint64_t Covered = 0, CurS = 0, CurE = 0;
      bool Have = false;
      for (auto [B, E] : K) {
        B = std::max(B, S[I].Start);
        E = std::min(E, S[I].End);
        if (E <= B)
          continue;
        if (Have && B <= CurE) {
          CurE = std::max(CurE, E);
          continue;
        }
        if (Have)
          Covered += CurE - CurS;
        CurS = B;
        CurE = E;
        Have = true;
      }
      if (Have)
        Covered += CurE - CurS;
      uint64_t Dur = S[I].End > S[I].Start ? S[I].End - S[I].Start : 0;
      Self[I] = Dur > Covered ? Dur - Covered : 0;
    }
    return Self;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span). Each event's
  /// args carry its parent index, weight and self time. \returns false
  /// on I/O error.
  bool writeChrome(const std::string &Path) const {
    std::vector<Span> S = spans();
    std::vector<uint64_t> Self = selfTimes(S);
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    if (!F)
      return false;
    uint64_t Base = ~uint64_t(0);
    for (const Span &X : S)
      Base = std::min(Base, X.Start);
    std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t I = 0; I < S.size(); ++I) {
      const Span &X = S[I];
      uint64_t End = std::max(X.End, X.Start);
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"weight\":%u,\"self_us\":%.3f}}",
                   I ? ",\n" : "", X.Name.c_str(), X.Lane,
                   double(X.Start - Base) / 1e3, double(End - X.Start) / 1e3,
                   I, static_cast<long long>(X.Parent), X.Weight,
                   double(Self[I]) / 1e3);
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  bool On;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// RAII span on the calling thread.
class SpanScope {
public:
  SpanScope(SpanLog &L, const char *Name, int64_t Parent, uint32_t Lane = 0)
      : L(L), Id(L.open(Name, Parent, Lane)) {}
  ~SpanScope() { L.close(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  int64_t id() const { return Id; }

private:
  SpanLog &L;
  int64_t Id;
};

} // namespace verdictbench

#endif // VYRD_VERDICTBENCH_SPANS_H
