//===- Trace.cpp - Chrome/Perfetto trace_event recorder -------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

using namespace vyrd;

static std::string valueListStr(const ValueList &Args) {
  std::string Out = "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I].str();
  }
  Out += ")";
  return Out;
}

void TraceRecorder::setObjectName(ObjectId Obj, std::string ObjName) {
  std::lock_guard Lock(M);
  ObjectNames[Obj + 1] = std::move(ObjName);
}

void TraceRecorder::noteAction(const Action &A) {
  std::lock_guard Lock(M);
  MaxTs = std::max(MaxTs, A.Seq);
  uint64_t OpenKey = (static_cast<uint64_t>(A.Obj) << 32) | A.Tid;
  TraceEvent E;
  E.Pid = A.Obj + 1;
  E.Tid = A.Tid;
  E.Ts = A.Seq;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "{\"seq\":%" PRIu64 "}", A.Seq);
  E.Args = Buf;
  switch (A.Kind) {
  case ActionKind::AK_Call:
    E.Ph = 'B';
    E.Name = std::string(A.Method.str());
    if (!A.Args.empty()) {
      std::snprintf(Buf, sizeof(Buf), "{\"seq\":%" PRIu64 ",\"args\":\"",
                    A.Seq);
      E.Args = Buf + jsonEscape(valueListStr(A.Args)) + "\"}";
    }
    OpenCalls[OpenKey].push_back(A.Method);
    break;
  case ActionKind::AK_Return: {
    E.Ph = 'E';
    E.Name = std::string(A.Method.str());
    std::snprintf(Buf, sizeof(Buf), "{\"seq\":%" PRIu64 ",\"ret\":\"",
                  A.Seq);
    E.Args = Buf + jsonEscape(A.Ret.str()) + "\"}";
    auto &Open = OpenCalls[OpenKey];
    if (!Open.empty())
      Open.pop_back();
    break;
  }
  case ActionKind::AK_Commit: {
    E.Ph = 'i';
    const auto &Open = OpenCalls[OpenKey];
    E.Name = Open.empty()
                 ? std::string("commit")
                 : "commit " + std::string(Open.back().str());
    break;
  }
  case ActionKind::AK_Write:
    E.Ph = 'i';
    E.Name = std::string(A.Var.str()) + " := " + A.Ret.str();
    break;
  case ActionKind::AK_BlockBegin:
    E.Ph = 'B';
    E.Name = "commit-block";
    break;
  case ActionKind::AK_BlockEnd:
    E.Ph = 'E';
    E.Name = "commit-block";
    break;
  case ActionKind::AK_ReplayOp:
    E.Ph = 'i';
    E.Name = "replay " + std::string(A.Var.str());
    break;
  }
  Events.push_back(std::move(E));
}

void TraceRecorder::noteCheckSpan(uint64_t FirstSeq, uint64_t LastSeq,
                                  uint64_t NumActions) {
  std::lock_guard Lock(M);
  SawVerifierEvent = true;
  MaxTs = std::max(MaxTs, LastSeq + 1);
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "{\"first_seq\":%" PRIu64 ",\"last_seq\":%" PRIu64
                ",\"actions\":%" PRIu64 "}",
                FirstSeq, LastSeq, NumActions);
  Events.push_back({'B', 1, VerifierTrackTid, FirstSeq, "check", Buf});
  Events.push_back({'E', 1, VerifierTrackTid, LastSeq + 1, "check", ""});
}

void TraceRecorder::noteVerifierInstant(uint64_t Seq, std::string Name) {
  std::lock_guard Lock(M);
  SawVerifierEvent = true;
  MaxTs = std::max(MaxTs, Seq);
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "{\"seq\":%" PRIu64 "}", Seq);
  Events.push_back({'i', 1, VerifierTrackTid, Seq, std::move(Name), Buf});
}

void TraceRecorder::noteGauge(uint64_t Seq, std::string Name,
                              uint64_t Value) {
  std::lock_guard Lock(M);
  SawVerifierEvent = true;
  MaxTs = std::max(MaxTs, Seq);
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "{\"value\":%" PRIu64 "}", Value);
  Events.push_back({'C', 1, VerifierTrackTid, Seq, std::move(Name), Buf});
}

size_t TraceRecorder::eventCount() const {
  std::lock_guard Lock(M);
  return Events.size();
}

/// Renders one trace_event object. The pid is the event's track group:
/// object 0 (and the verifier track) render as pid 1, exactly the
/// single-process layout this emitted before the multi-object engine;
/// further objects get their own "process" so viewers group per object.
static void renderEvent(std::string &Out, const TraceEvent &E) {
  char Buf[112];
  Out += "{\"name\":\"";
  Out += jsonEscape(E.Name);
  std::snprintf(Buf, sizeof(Buf),
                "\",\"ph\":\"%c\",\"pid\":%" PRIu32 ",\"tid\":%" PRIu32
                ",\"ts\":%" PRIu64,
                E.Ph, E.Pid, E.Tid, E.Ts);
  Out += Buf;
  if (E.Ph == 'i')
    Out += ",\"s\":\"t\"";
  if (!E.Args.empty()) {
    Out += ",\"args\":";
    Out += E.Args;
  }
  Out += "},\n";
}

std::string TraceRecorder::json() const {
  std::lock_guard Lock(M);
  std::string Out =
      "{\"displayTimeUnit\":\"ms\",\n"
      "\"otherData\":{\"generator\":\"vyrd\","
      "\"time_base\":\"virtual: 1 log record = 1 us\"},\n"
      "\"traceEvents\":[\n";

  // Metadata: name every track group ("process" = verified object) and
  // every track that has events.
  std::set<uint32_t> Pids;
  std::set<std::pair<uint32_t, uint32_t>> Tracks;
  for (const TraceEvent &E : Events) {
    Pids.insert(E.Pid);
    Tracks.insert({E.Pid, E.Tid});
  }
  if (Pids.empty())
    Pids.insert(1); // the legacy empty-trace document still names pid 1
  char Buf[160];
  for (uint32_t Pid : Pids) {
    auto NameIt = ObjectNames.find(Pid);
    std::string PName;
    if (NameIt != ObjectNames.end() && !NameIt->second.empty())
      PName = "object: " + NameIt->second;
    else if (Pid == 1 && Pids.size() == 1)
      PName = "vyrd pipeline"; // anonymous single-object layout
    else
      PName = "object " + std::to_string(Pid - 1);
    // Object names are caller-chosen and unbounded: no fixed buffer.
    Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(Pid) + ",\"args\":{\"name\":\"" +
           jsonEscape(PName) + "\"}},\n";
  }
  for (auto [Pid, Tid] : Tracks) {
    const char *Kind =
        Tid == VerifierTrackTid ? "verifier" : "impl thread";
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                  ",\"tid\":%" PRIu32 ",\"args\":{\"name\":\"%s %" PRIu32
                  "\"}},\n",
                  Pid, Tid, Kind, Tid);
    // The verifier track reads better without its huge tid suffix.
    if (Tid == VerifierTrackTid)
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                    ",\"tid\":%" PRIu32
                    ",\"args\":{\"name\":\"verifier\"}},\n",
                    Pid, Tid);
    Out += Buf;
  }

  for (const TraceEvent &E : Events)
    renderEvent(Out, E);

  // Close any spans still open (incomplete log tails) so viewers don't
  // drop them; inner-most first to keep B/E nesting valid.
  for (const auto &[Key, Open] : OpenCalls) {
    for (size_t I = Open.size(); I-- > 0;) {
      TraceEvent E;
      E.Ph = 'E';
      E.Pid = static_cast<uint32_t>(Key >> 32) + 1;
      E.Tid = static_cast<uint32_t>(Key);
      E.Ts = MaxTs + 1;
      E.Name = std::string(Open[I].str());
      renderEvent(Out, E);
    }
  }

  // Strip the trailing ",\n" and close the document.
  if (Out.size() >= 2 && Out[Out.size() - 2] == ',')
    Out.erase(Out.size() - 2, 1);
  Out += "]}\n";
  return Out;
}

bool TraceRecorder::writeFile(const std::string &Path) const {
  std::string Doc = json();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Doc.data(), 1, Doc.size(), F);
  bool Ok = Written == Doc.size();
  return std::fclose(F) == 0 && Ok;
}
