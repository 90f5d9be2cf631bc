//===- ShippingTest.cpp - Segment shipping to a remote checker fleet -------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the producer/checker split behind SegmentTransport
/// (docs/SHIPPING.md): the framed wire protocol (CRC, resync), endpoint
/// parsing and config validation, verdict equivalence between the
/// in-process pipeline, InProcessTransport re-checks and a real
/// ShipServer fed over a unix socket, ack-gated producer-side segment
/// reclamation, producer-crash recovery at the receiver, and the
/// SD_LocalCheck / SD_Shed degrade paths when the fleet is unreachable.
///
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Backpressure.h"
#include "vyrd/CheckerService.h"
#include "vyrd/Epoch.h"
#include "vyrd/Log.h"
#include "vyrd/Monitor.h"
#include "vyrd/Serialize.h"
#include "vyrd/ShipServer.h"
#include "vyrd/Snapshot.h"
#include "vyrd/Transport.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

std::string tempBase(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-shiptest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

/// Short socket paths: TempDir can push a unix path past sun_path.
std::string tempSock(const char *Tag) {
  return "/tmp/vyrd-shipsock-" + std::string(Tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

void removeChainAll(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 128; ++I) {
    std::remove(logSegmentPath(Base, I).c_str());
    std::remove(snapshotSidecarPath(Base, I).c_str());
  }
}

/// Records a workload into \p SO.LogPath and returns the recording run's
/// report.
VerifierReport recordRun(ScenarioOptions SO, unsigned Threads,
                         unsigned OpsPerThread, uint64_t Seed,
                         bool Composite = false) {
  Scenario S = Composite ? makeCompositeScenario(SO) : makeScenario(SO);
  Chaos::enable(4, static_cast<unsigned>(Seed % 13 + 1));
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = OpsPerThread;
  WO.KeyPoolSize = 16;
  WO.Seed = static_cast<unsigned>(Seed);
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

/// Records a composite four-object segmented chain; when \p Buggy,
/// retries seeds until the recording caught a violation.
VerifierReport recordCompositeChain(const std::string &Base, bool Buggy,
                                    uint64_t SegmentBytes = 16 * 1024) {
  for (int Try = 0;; ++Try) {
    removeChainAll(Base);
    ScenarioOptions SO;
    SO.Mode = RunMode::RM_OnlineView;
    SO.LogPath = Base;
    SO.Buggy = Buggy;
    SO.Backpressure.SegmentBytes = SegmentBytes;
    SO.Backpressure.ReclaimSegments = false;
    VerifierReport Rec =
        recordRun(SO, 4, 400, 7000 + Try, /*Composite=*/true);
    if (!Buggy || !Rec.Violations.empty() || Try >= 30)
      return Rec;
  }
}

/// From-zero reference over a recorded chain (serial, no snapshots).
EpochReport fromZero(const std::string &Base, size_t NumObjects,
                     PipelineFactory F) {
  EpochCheckOptions Zero;
  Zero.UseSnapshots = false;
  return epochCheck(Base, NumObjects, F, Zero);
}

/// Re-checks a chain through a CheckerService fed by an
/// InProcessTransport — the SD_LocalCheck path, and the structural
/// reference the socket tests compare against.
struct LocalShip {
  bool Ok = false;
  std::string Err;
  VerifierReport R;
};

LocalShip shipChainInProcess(const std::string &Base, size_t NumObjects,
                             PipelineFactory F, uint64_t FinalSeq) {
  LocalShip Out;
  CheckerService Svc(CheckerServiceOptions{});
  for (size_t Id = 0; Id < NumObjects; ++Id) {
    std::string Name;
    std::unique_ptr<Spec> S;
    std::unique_ptr<Replayer> R;
    if (!F(static_cast<ObjectId>(Id), Name, S, R) || !S) {
      Out.Err = "pipeline factory failed for object " + std::to_string(Id);
      return Out;
    }
    Svc.addObject(Name, std::move(S), std::move(R), CheckerConfig());
  }
  InProcessTransport T(Svc);
  if (!shipChain(Base, T, FinalSeq, /*CloseTimeoutMs=*/1000, Out.Err))
    return Out;
  Svc.finishChecking();
  Svc.buildReport(Out.R);
  Out.R.LogRecords = FinalSeq;
  Out.Ok = true;
  return Out;
}

/// Minimal field scraping for the server-side report JSON (the report is
/// rendered by VerifierReport::json(); exact key set pinned there).
uint64_t jsonUint(const std::string &J, const std::string &Key,
                  size_t From = 0) {
  std::string Needle = "\"" + Key + "\":";
  size_t P = J.find(Needle, From);
  if (P == std::string::npos)
    return ~0ull;
  return std::strtoull(J.c_str() + P + Needle.size(), nullptr, 10);
}

/// The "records" count of the object named \p Name in a report JSON.
uint64_t jsonObjectRecords(const std::string &J, const std::string &Name) {
  size_t P = J.find("\"name\":\"" + Name + "\"");
  if (P == std::string::npos)
    return ~0ull;
  return jsonUint(J, "records", P);
}

uint64_t jsonObjectViolations(const std::string &J,
                              const std::string &Name) {
  size_t P = J.find("\"name\":\"" + Name + "\"");
  if (P == std::string::npos)
    return ~0ull;
  return jsonUint(J, "violations", P);
}

bool readFileBytes(const std::string &Path, std::string &Out) {
  FILE *Fp = std::fopen(Path.c_str(), "rb");
  if (!Fp)
    return false;
  char Buf[65536];
  size_t N;
  Out.clear();
  while ((N = std::fread(Buf, 1, sizeof(Buf), Fp)) > 0)
    Out.append(Buf, N);
  std::fclose(Fp);
  return true;
}

/// Hand-rolled producer frames for the crash/garbage wire tests.
void appendHello(std::string &Out, const std::string &Name,
                 const std::string &Program, bool ViewLevel) {
  ByteWriter W;
  W.str(Name);
  W.str(Program);
  W.u8(ViewLevel ? 1 : 0);
  wire::appendFrame(Out, wire::FT_Hello, W.buffer().data(), W.size());
}

/// Frames one segment image: Begin, chunks, End. \p TruncateAfterChunks
/// < SIZE_MAX cuts the transfer off mid-segment (no End frame).
void appendSegment(std::string &Out, uint64_t Index,
                   const std::string &Image,
                   size_t TruncateAfterChunks = SIZE_MAX) {
  ByteWriter B;
  B.varint(Index);
  B.varint(Image.size());
  wire::appendFrame(Out, wire::FT_SegmentBegin, B.buffer().data(),
                    B.size());
  size_t Sent = 0;
  for (size_t Off = 0; Off < Image.size(); Off += wire::ChunkBytes) {
    if (Sent++ >= TruncateAfterChunks)
      return;
    size_t Len = std::min(wire::ChunkBytes, Image.size() - Off);
    wire::appendFrame(Out, wire::FT_SegmentChunk, Image.data() + Off, Len);
  }
  if (TruncateAfterChunks != SIZE_MAX)
    return;
  ByteWriter E;
  E.varint(Index);
  wire::appendFrame(Out, wire::FT_SegmentEnd, E.buffer().data(), E.size());
}

void appendClose(std::string &Out, uint64_t FinalSeqExclusive) {
  ByteWriter W;
  W.varint(FinalSeqExclusive);
  wire::appendFrame(Out, wire::FT_Close, W.buffer().data(), W.size());
}

/// Blocking unix-socket client for the raw wire tests.
int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  for (int Try = 0; Try < 100; ++Try) {
    if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return Fd;
    usleep(20 * 1000);
  }
  close(Fd);
  return -1;
}

bool sendRaw(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                     MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// The resolver vyrd-checkd uses, narrowed to what the tests ship.
bool testResolver(const std::string &Program, bool ViewLevel,
                  size_t &NumObjects, PipelineFactory &Factory) {
  if (Program == "composite") {
    NumObjects = 4;
    Factory = makeCompositePipeline(ViewLevel);
    return true;
  }
  if (Program == "multiset") {
    NumObjects = 1;
    Factory = makeProgramPipeline(Program::P_MultisetVector, ViewLevel);
    return true;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire framing
//===----------------------------------------------------------------------===//

TEST(ShippingTest, FrameRoundTripAcrossArbitrarySplits) {
  std::string Stream;
  std::string P1 = "first payload";
  std::string P2(100 * 1000, 'x'); // larger than one read() would return
  std::string P3 = "";
  wire::appendFrame(Stream, wire::FT_Hello, P1.data(), P1.size());
  wire::appendFrame(Stream, wire::FT_SegmentChunk, P2.data(), P2.size());
  wire::appendFrame(Stream, wire::FT_Close, P3.data(), P3.size());

  wire::FrameParser Parser;
  std::vector<wire::Frame> Got;
  for (size_t Off = 0; Off < Stream.size(); Off += 7) {
    Parser.feed(Stream.data() + Off, std::min<size_t>(7, Stream.size() - Off));
    wire::Frame F;
    while (Parser.next(F))
      Got.push_back(F);
  }
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].Type, wire::FT_Hello);
  EXPECT_EQ(std::string(Got[0].Payload.begin(), Got[0].Payload.end()), P1);
  EXPECT_EQ(Got[1].Type, wire::FT_SegmentChunk);
  EXPECT_EQ(Got[1].Payload.size(), P2.size());
  EXPECT_EQ(Got[2].Type, wire::FT_Close);
  EXPECT_TRUE(Got[2].Payload.empty());
  EXPECT_EQ(Parser.crcErrors(), 0u);
  EXPECT_EQ(Parser.resyncs(), 0u);
}

TEST(ShippingTest, CorruptFrameResyncsAtNextMagic) {
  std::string A = "aaaa", B = "bbbb", C = "cccc";
  std::string Stream;
  wire::appendFrame(Stream, wire::FT_Hello, A.data(), A.size());
  size_t MidStart = Stream.size();
  wire::appendFrame(Stream, wire::FT_SegmentChunk, B.data(), B.size());
  wire::appendFrame(Stream, wire::FT_Close, C.data(), C.size());
  Stream[MidStart + 10] ^= 0x5A; // scribble into the middle payload

  wire::FrameParser Parser;
  Parser.feed(Stream.data(), Stream.size());
  std::vector<wire::Frame> Got;
  wire::Frame F;
  while (Parser.next(F))
    Got.push_back(F);
  ASSERT_EQ(Got.size(), 2u) << "the corrupted frame is lost, not the rest";
  EXPECT_EQ(Got[0].Type, wire::FT_Hello);
  EXPECT_EQ(Got[1].Type, wire::FT_Close);
  EXPECT_EQ(std::string(Got[1].Payload.begin(), Got[1].Payload.end()), C);
  EXPECT_GE(Parser.crcErrors(), 1u);
  EXPECT_GE(Parser.resyncs(), 1u);
}

TEST(ShippingTest, GarbageBetweenFramesAndTruncatedTail) {
  std::string A = "payload";
  std::string Stream = "this is not a frame at all ";
  wire::appendFrame(Stream, wire::FT_Hello, A.data(), A.size());

  wire::FrameParser Parser;
  Parser.feed(Stream.data(), Stream.size());
  wire::Frame F;
  ASSERT_TRUE(Parser.next(F));
  EXPECT_EQ(F.Type, wire::FT_Hello);
  EXPECT_GE(Parser.resyncs(), 1u);
  EXPECT_FALSE(Parser.next(F));

  // A truncated frame stays pending and never parses.
  std::string Tail;
  wire::appendFrame(Tail, wire::FT_Close, A.data(), A.size());
  Parser.feed(Tail.data(), Tail.size() / 2);
  EXPECT_FALSE(Parser.next(F));
  Parser.feed(Tail.data() + Tail.size() / 2, Tail.size() - Tail.size() / 2);
  ASSERT_TRUE(Parser.next(F));
  EXPECT_EQ(F.Type, wire::FT_Close);
}

//===----------------------------------------------------------------------===//
// Endpoint parsing and config validation
//===----------------------------------------------------------------------===//

TEST(ShippingTest, EndpointParsing) {
  ShipEndpoint Ep;
  std::string Err;
  ASSERT_TRUE(parseShipEndpoint("unix:/run/vyrd.sock", Ep, Err)) << Err;
  EXPECT_TRUE(Ep.IsUnix);
  EXPECT_EQ(Ep.Path, "/run/vyrd.sock");
  ASSERT_TRUE(parseShipEndpoint("tcp:localhost:9321", Ep, Err)) << Err;
  EXPECT_FALSE(Ep.IsUnix);
  EXPECT_EQ(Ep.Host, "localhost");
  EXPECT_EQ(Ep.Port, 9321);

  for (const char *Bad :
       {"", "ftp://x", "unix:", "tcp:", "tcp:host", "tcp:host:",
        "tcp:host:notaport", "tcp:host:70000", "tcp::9000"}) {
    Err.clear();
    EXPECT_FALSE(parseShipEndpoint(Bad, Ep, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  // A unix path past sizeof(sockaddr_un::sun_path) must be refused here,
  // not silently truncated at bind time.
  std::string Long = "unix:/" + std::string(maxUnixSocketPathLen() + 8, 'p');
  EXPECT_FALSE(parseShipEndpoint(Long, Ep, Err));
}

TEST(ShippingTest, ConfigValidationGatesShipping) {
  VerifierConfig VC;
  VC.Shipping.Endpoint = "unix:/tmp/vyrd-shiptest-validate.sock";
  EXPECT_NE(VC.validate().find("Shipping requires a file-backed log"),
            std::string::npos)
      << "shipping without a segmented file log must be rejected: "
      << VC.validate();
  VC.LogFilePath = "/tmp/vyrd-shiptest-validate.bin";
  VC.Backpressure.SegmentBytes = 1 << 20;
  EXPECT_NE(VC.validate().find("Shipping.Program must name"),
            std::string::npos)
      << "shipping needs a program key: " << VC.validate();
  VC.Shipping.Program = "multiset";
  EXPECT_TRUE(VC.validate().empty()) << VC.validate();

  VerifierConfig Good = VC;
  VC.Online = false;
  EXPECT_NE(VC.validate().find("Shipping requires Online"), std::string::npos)
      << "shipping is an online pipeline: " << VC.validate();
  VC = Good;
  VC.Snapshots = true;
  EXPECT_NE(VC.validate().find("Shipping excludes Snapshots"),
            std::string::npos)
      << VC.validate();
  VC = Good;
  VC.Backpressure.Enabled = true;
  VC.Adaptive.Enabled = true;
  EXPECT_NE(VC.validate().find("Shipping excludes Adaptive"),
            std::string::npos)
      << VC.validate();
  VC = Good;
  VC.Shipping.MaxRetries = 0;
  EXPECT_NE(VC.validate().find("Shipping.MaxRetries must be >= 1"),
            std::string::npos)
      << VC.validate();
  VC = Good;
  VC.Shipping.Endpoint = "tcp:host";
  EXPECT_NE(VC.validate().find("Shipping.Endpoint: tcp endpoint needs host "
                               "and port"),
            std::string::npos)
      << VC.validate();
  VC = Good;
  VC.Shipping.Endpoint =
      "unix:/" + std::string(maxUnixSocketPathLen() + 8, 'p');
  EXPECT_NE(VC.validate().find("Shipping.Endpoint: unix socket path exceeds"),
            std::string::npos)
      << VC.validate();
}

TEST(ShippingTest, ConfigValidationRejectsOverlongMonitorSocket) {
  VerifierConfig VC;
  VC.Telemetry.Enabled = true;
  VC.Monitor.SocketPath = "/" + std::string(maxUnixSocketPathLen() + 8, 'm');
  std::string Err = VC.validate();
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("sockaddr_un"), std::string::npos) << Err;
  VC.Monitor.SocketPath = "/tmp/vyrd-shiptest-mon.sock";
  EXPECT_TRUE(VC.validate().empty()) << VC.validate();
}

//===----------------------------------------------------------------------===//
// Verdict equivalence: inline == InProcessTransport == socket fleet
//===----------------------------------------------------------------------===//

// A recorded buggy composite chain must produce the identical verdict,
// attribution and per-object stats when re-checked (a) from zero, (b)
// through InProcessTransport into a CheckerService, and (c) shipped over
// a real unix socket into a ShipServer session.
TEST(ShippingTest, ShippedVerdictMatchesInProcessCheck) {
  std::string Base = tempBase("equiv");
  VerifierReport Rec = recordCompositeChain(Base, /*Buggy=*/true);
  ASSERT_FALSE(Rec.Violations.empty())
      << "could not provoke the composite multiset bug in 30 seeds";

  std::vector<Action> Records;
  ASSERT_TRUE(loadLogFile(Base, Records));
  uint64_t FinalSeq = Records.size();

  // (a) The serial from-zero reference.
  EpochReport Zero = fromZero(Base, 4, makeCompositePipeline(true));
  ASSERT_TRUE(Zero.Error.empty()) << Zero.Error;
  ASSERT_FALSE(Zero.Report.Violations.empty());

  // (b) InProcessTransport == from-zero, field by field.
  LocalShip Local =
      shipChainInProcess(Base, 4, makeCompositePipeline(true), FinalSeq);
  ASSERT_TRUE(Local.Ok) << Local.Err;
  ASSERT_EQ(Local.R.Violations.size(), Zero.Report.Violations.size());
  for (size_t I = 0; I < Local.R.Violations.size(); ++I) {
    EXPECT_EQ(Local.R.Violations[I].Seq, Zero.Report.Violations[I].Seq);
    EXPECT_EQ(Local.R.Violations[I].Kind, Zero.Report.Violations[I].Kind);
    EXPECT_EQ(Local.R.Violations[I].Obj, Zero.Report.Violations[I].Obj);
  }
  ASSERT_EQ(Local.R.Objects.size(), 4u);
  for (size_t O = 0; O < 4; ++O) {
    EXPECT_EQ(Local.R.Objects[O].Name, Zero.Report.Objects[O].Name);
    EXPECT_EQ(Local.R.Objects[O].Records, Zero.Report.Objects[O].Records);
    EXPECT_EQ(Local.R.Objects[O].Stats.ActionsFed,
              Zero.Report.Objects[O].Stats.ActionsFed);
    EXPECT_EQ(Local.R.Objects[O].Stats.ViewComparisons,
              Zero.Report.Objects[O].Stats.ViewComparisons);
  }

  // (c) The socket fleet: SocketTransport -> ShipServer over a real
  // unix socket, then compare its session report.
  std::string Sock = tempSock("equiv");
  std::remove(Sock.c_str());
  ShipServerOptions O;
  O.Listen = "unix:" + Sock;
  O.ReportDir = ""; // keep the report in memory only
  MonitorRegistry Registry;
  ShipServer Server(O, testResolver, &Registry);
  ASSERT_TRUE(Server.valid()) << Server.error();

  ShipperOptions SO;
  SO.Endpoint = "unix:" + Sock;
  SO.StreamName = "equiv";
  SO.Program = "composite";
  SO.ViewLevel = true;
  SocketTransport T(SO, nullptr);
  std::string Err;
  ASSERT_TRUE(shipChain(Base, T, FinalSeq, /*CloseTimeoutMs=*/10000, Err))
      << Err;
  ASSERT_TRUE(Server.waitForSessionEnd("equiv", 10000));
  std::string J = Server.sessionReportJson("equiv");
  ASSERT_FALSE(J.empty());
  EXPECT_EQ(jsonUint(J, "violations"), Local.R.Violations.size());
  EXPECT_EQ(jsonUint(J, "log_records"), FinalSeq);
  EXPECT_EQ(jsonUint(J, "actions_fed"), Local.R.Stats.ActionsFed);
  for (const char *Name : {"multiset", "cache", "blinktree", "queue"}) {
    const ObjectReport *Ref = nullptr;
    for (const ObjectReport &OR : Local.R.Objects)
      if (OR.Name == Name)
        Ref = &OR;
    ASSERT_NE(Ref, nullptr) << Name;
    EXPECT_EQ(jsonObjectRecords(J, Name), Ref->Records) << Name;
    EXPECT_EQ(jsonObjectViolations(J, Name), Ref->Violations.size())
        << Name;
  }

  // The session registered with the monitor registry and stays
  // resolvable after completion (a bound vyrd-mon keeps working).
  std::vector<std::string> Names = Registry.names();
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "equiv");
  EXPECT_NE(Registry.resolve("equiv"), nullptr);
  EXPECT_EQ(Registry.resolve("nope"), nullptr);

  Server.stop();
  std::remove(Sock.c_str());
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Live shipping run: acks gate reclamation
//===----------------------------------------------------------------------===//

// A live Verifier in shipping mode must reclaim closed segments only
// after the remote ack covers them: with acks withheld the whole chain
// stays on disk; once they flow, the checked prefix goes away and the
// final ack confirms the complete stream.
TEST(ShippingTest, LiveRunReclaimsOnlyAckedSegments) {
  std::string Base = tempBase("live");
  std::string Sock = tempSock("live");
  removeChainAll(Base);
  std::remove(Sock.c_str());

  ShipServerOptions O;
  O.Listen = "unix:" + Sock;
  O.ReportDir = "";
  ShipServer Server(O, testResolver, nullptr);
  ASSERT_TRUE(Server.valid()) << Server.error();
  Server.setHoldAcks(true);

  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = true;
  SO.Telemetry.Enabled = true;
  SO.Shipping.Endpoint = "unix:" + Sock;
  SO.Shipping.StreamName = "live";
  Scenario S = makeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 400;
  WO.KeyPoolSize = 16;
  WO.Seed = 42;
  runWorkload(WO, S.Op);

  // Acks were withheld for the whole workload, so nothing was reclaimed:
  // segment 1 must still exist.
  {
    std::vector<ChainSegment> Segs;
    ASSERT_TRUE(enumerateChain(Base, Segs));
    ASSERT_GE(Segs.size(), 2u) << "workload too small to rotate";
    EXPECT_EQ(Segs.front().Index, 1u)
        << "reclamation must be gated on remote acks, not local progress";
  }

  Server.setHoldAcks(false);
  VerifierReport R = S.Finish();
  ASSERT_TRUE(R.Shipping.Enabled);
  EXPECT_EQ(R.Shipping.Endpoint, "unix:" + Sock);
  EXPECT_EQ(R.Shipping.StreamName, "live");
  EXPECT_TRUE(R.Shipping.FinalAckOk) << R.str();
  EXPECT_FALSE(R.Shipping.Degraded);
  EXPECT_GE(R.Shipping.SegmentsShipped, 2u);
  EXPECT_GE(R.Shipping.Acks, 1u);
  EXPECT_EQ(R.Shipping.AckedWatermark, R.LogRecords)
      << "the final ack covers the entire stream";
  EXPECT_TRUE(R.Violations.empty())
      << "a shipping producer runs no local checkers";
  ASSERT_TRUE(R.TelemetryEnabled);
  EXPECT_EQ(R.Telemetry.counter(Counter::C_ShipSegments),
            R.Shipping.SegmentsShipped);

  // The confirmed final ack reclaimed the acked prefix.
  FILE *Seg1 = std::fopen(logSegmentPath(Base, 1).c_str(), "rb");
  EXPECT_EQ(Seg1, nullptr) << "acked segments must be reclaimed";
  if (Seg1)
    std::fclose(Seg1);

  ASSERT_TRUE(Server.waitForSessionEnd("live", 10000));
  std::string J = Server.sessionReportJson("live");
  ASSERT_FALSE(J.empty());
  EXPECT_NE(J.find("\"ok\":true"), std::string::npos) << J;
  EXPECT_EQ(jsonUint(J, "log_records"), R.LogRecords);

  Server.stop();
  std::remove(Sock.c_str());
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Producer crash recovery and mid-stream garbage
//===----------------------------------------------------------------------===//

// A producer that dies mid-segment (no End frame, abrupt EOF) must cost
// the fleet only that segment: the daemon finalizes the session over the
// fed prefix, and the report matches a from-zero check of exactly those
// records.
TEST(ShippingTest, ProducerCrashMidSegmentFinalizesFedPrefix) {
  std::string Base = tempBase("crash");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 4 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  VerifierReport Rec = recordRun(SO, 4, 400, 11);
  ASSERT_TRUE(Rec.ok()) << Rec.str();

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  ASSERT_GE(Segs.size(), 3u) << "need a chain to crash in the middle of";

  std::string Sock = tempSock("crash");
  std::remove(Sock.c_str());
  ShipServerOptions O;
  O.Listen = "unix:" + Sock;
  O.ReportDir = "";
  ShipServer Server(O, testResolver, nullptr);
  ASSERT_TRUE(Server.valid()) << Server.error();

  // Ship the first two segments whole, then "crash": a SegmentBegin plus
  // one chunk of segment 3 and an abrupt close.
  int Fd = connectUnix(Sock);
  ASSERT_GE(Fd, 0);
  std::string Out;
  appendHello(Out, "crash", "multiset", /*ViewLevel=*/true);
  for (size_t I = 0; I < 2; ++I) {
    std::string Img;
    ASSERT_TRUE(readFileBytes(Segs[I].Path, Img));
    appendSegment(Out, Segs[I].Index, Img);
  }
  std::string Img3;
  ASSERT_TRUE(readFileBytes(Segs[2].Path, Img3));
  appendSegment(Out, Segs[2].Index, Img3, /*TruncateAfterChunks=*/1);
  ASSERT_TRUE(sendRaw(Fd, Out));
  close(Fd); // the crash

  // stop() finalizes the truncated session over what it fed.
  usleep(100 * 1000);
  Server.stop();
  std::string J = Server.sessionReportJson("crash");
  ASSERT_FALSE(J.empty());

  // Reference: the fed prefix is exactly segments 1..2, i.e. every
  // record below segment 3's first sequence number.
  uint64_t Prefix = Segs[2].FirstSeq;
  EXPECT_EQ(jsonUint(J, "log_records"), Prefix);
  EXPECT_EQ(jsonUint(J, "actions_fed"), Prefix)
      << "the partial segment must not be fed";
  EXPECT_NE(J.find("\"ok\":true"), std::string::npos) << J;

  std::remove(Sock.c_str());
  removeChainAll(Base);
}

// Garbage injected between frames must cost nothing: the receiver
// resynchronizes at the next frame magic and the verdict over the full
// stream is unchanged.
TEST(ShippingTest, GarbageOnTheWireResyncsWithoutVerdictDamage) {
  std::string Base = tempBase("garbage");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 4 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  VerifierReport Rec = recordRun(SO, 4, 300, 13);
  ASSERT_TRUE(Rec.ok()) << Rec.str();
  std::vector<Action> Records;
  ASSERT_TRUE(loadLogFile(Base, Records));
  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  ASSERT_GE(Segs.size(), 2u);

  std::string Sock = tempSock("garbage");
  std::remove(Sock.c_str());
  ShipServerOptions O;
  O.Listen = "unix:" + Sock;
  O.ReportDir = "";
  ShipServer Server(O, testResolver, nullptr);
  ASSERT_TRUE(Server.valid()) << Server.error();

  int Fd = connectUnix(Sock);
  ASSERT_GE(Fd, 0);
  std::string Out;
  appendHello(Out, "garbage", "multiset", /*ViewLevel=*/true);
  for (size_t I = 0; I < Segs.size(); ++I) {
    Out += "#### line noise between frames ####";
    std::string Img;
    ASSERT_TRUE(readFileBytes(Segs[I].Path, Img));
    appendSegment(Out, Segs[I].Index, Img);
  }
  appendClose(Out, Records.size());
  ASSERT_TRUE(sendRaw(Fd, Out));
  ASSERT_TRUE(Server.waitForSessionEnd("garbage", 10000));
  close(Fd);
  std::string J = Server.sessionReportJson("garbage");
  ASSERT_FALSE(J.empty());
  EXPECT_EQ(jsonUint(J, "log_records"), Records.size());
  EXPECT_EQ(jsonUint(J, "actions_fed"), Records.size());
  EXPECT_NE(J.find("\"ok\":true"), std::string::npos) << J;

  Server.stop();
  std::remove(Sock.c_str());
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Degrade paths: the fleet is unreachable
//===----------------------------------------------------------------------===//

// SD_LocalCheck: when the fleet never answers, finish() re-checks the
// surviving chain in-process — including catching a violation the remote
// fleet would have caught.
TEST(ShippingTest, LocalCheckDegradeCatchesViolationLocally) {
  std::string Base = tempBase("degrade-local");
  bool Caught = false;
  for (int Try = 0; Try < 20 && !Caught; ++Try) {
    removeChainAll(Base);
    ScenarioOptions SO;
    SO.Prog = Program::P_MultisetVector;
    SO.Mode = RunMode::RM_OnlineView;
    SO.LogPath = Base;
    SO.Buggy = true;
    SO.Backpressure.SegmentBytes = 8 * 1024;
    SO.Backpressure.ReclaimSegments = true;
    SO.Shipping.Endpoint =
        "unix:/tmp/vyrd-shiptest-no-such-daemon-" +
        std::to_string(::getpid()) + ".sock";
    SO.Shipping.MaxRetries = 1;
    SO.Shipping.BackoffInitialMs = 1;
    SO.Shipping.BackoffCapMs = 2;
    SO.Shipping.FinalAckTimeoutMs = 10;
    SO.Shipping.Degrade = ShipDegrade::SD_LocalCheck;
    VerifierReport R = recordRun(SO, 4, 300, 4000 + Try);
    ASSERT_TRUE(R.Shipping.Enabled);
    EXPECT_TRUE(R.Shipping.Degraded);
    EXPECT_EQ(R.Shipping.DegradeMode, "local-check");
    EXPECT_FALSE(R.Shipping.FinalAckOk);
    EXPECT_EQ(R.Shipping.FallbackRecords, R.LogRecords)
        << "nothing was acked, so the whole chain re-checks locally";
    ASSERT_FALSE(R.Notes.empty());
    if (!R.Violations.empty())
      Caught = true;
  }
  EXPECT_TRUE(Caught)
      << "the local fallback never reproduced the injected bug";
  removeChainAll(Base);
}

// SD_Shed: verdicts on acked records stand, the unverified suffix is
// accounted as a degradation note — no local checking happens.
TEST(ShippingTest, ShedDegradeAccountsUnverifiedSuffix) {
  std::string Base = tempBase("degrade-shed");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = true;
  SO.Shipping.Endpoint = "unix:/tmp/vyrd-shiptest-no-such-daemon2-" +
                         std::to_string(::getpid()) + ".sock";
  SO.Shipping.MaxRetries = 1;
  SO.Shipping.BackoffInitialMs = 1;
  SO.Shipping.BackoffCapMs = 2;
  SO.Shipping.FinalAckTimeoutMs = 10;
  SO.Shipping.Degrade = ShipDegrade::SD_Shed;
  VerifierReport R = recordRun(SO, 4, 300, 21);
  ASSERT_TRUE(R.Shipping.Enabled);
  EXPECT_TRUE(R.Shipping.Degraded);
  EXPECT_EQ(R.Shipping.DegradeMode, "shed");
  EXPECT_EQ(R.Shipping.FallbackRecords, 0u);
  EXPECT_EQ(R.Shipping.AckedWatermark, 0u);
  ASSERT_FALSE(R.Notes.empty());
  bool Noted = false;
  for (const std::string &N : R.Notes)
    Noted |= N.find("unverified") != std::string::npos;
  EXPECT_TRUE(Noted) << "the shed note must name the unverified records";
  EXPECT_TRUE(R.ok()) << "notes are advisories, not violations";
  removeChainAll(Base);
}

// The retry budget: a transport pointed at nothing burns exactly
// MaxRetries retries with capped backoff, then reports unhealthy and
// stops trying.
TEST(ShippingTest, RetryBudgetAndBackoffAccounting) {
  ShipperOptions O;
  O.Endpoint = "unix:/tmp/vyrd-shiptest-void-" +
               std::to_string(::getpid()) + ".sock";
  O.Program = "multiset";
  O.MaxRetries = 3;
  O.BackoffInitialMs = 1;
  O.BackoffCapMs = 4;
  SocketTransport T(O, nullptr);
  EXPECT_TRUE(T.healthy());

  ShipSegmentInfo Seg;
  Seg.Index = 1;
  Seg.Path = "/tmp/vyrd-shiptest-does-not-exist.bin";
  EXPECT_FALSE(T.shipSegment(Seg));
  EXPECT_FALSE(T.healthy());
  SegmentTransport::Stats St = T.stats();
  EXPECT_EQ(St.Retries, 3u);
  EXPECT_EQ(St.Segments, 0u);

  // Unhealthy transports fail fast: no further retries are burned.
  EXPECT_FALSE(T.shipSegment(Seg));
  EXPECT_EQ(T.stats().Retries, 3u);
  EXPECT_FALSE(T.shipClose(100, 10));
}
