//===----------------------------------------------------------------------===//
//
// Seeded network-fault matrices: torn writes, forced disconnects, and
// slow peers injected at the socket layer (FaultInjector sites
// NetTornWrite / NetDisconnect / NetReadDelay), end to end through the
// real server and the real retrying client. The property under test is
// the robustness contract, not any particular fault schedule: every
// request either completes or fails loudly at the client, the server
// never stops serving, and the jobs that survive produce byte-identical
// output to a fault-free run.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "net/Client.h"
#include "net/LoadGen.h"
#include "net/Server.h"
#include "support/FaultInjector.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mpc;
using namespace mpc::net;

namespace {

std::vector<SourceInput> workload(uint64_t Seed, double Scale = 0.02) {
  WorkloadProfile P = stdlibProfile(Scale);
  P.Seed = Seed;
  P.UnitsHint = 2;
  return generateWorkload(P);
}

std::string localDump(uint64_t Seed, double Scale = 0.02) {
  BatchJob Job;
  Job.Sources = workload(Seed, Scale);
  Job.WantDump = true;
  std::vector<BatchJob> Jobs;
  Jobs.push_back(std::move(Job));
  return compileBatch(std::move(Jobs), 1).at(0).DumpText;
}

ServerConfig serverConfig() {
  ServerConfig Cfg;
  Cfg.Service.Threads = 2;
  return Cfg;
}

/// One compile through a fresh fault-free-retrying client; must succeed
/// and match the local reference — the "server kept serving, and
/// correctly" probe run after every chaos phase.
void expectByteIdenticalRound(uint16_t Port, uint64_t Seed) {
  ClientConfig CC;
  CC.Port = Port;
  CC.MaxRetries = 16;
  CC.JitterSeed = Seed;
  CompileClient Client(CC);
  WireRequest Req;
  Req.ReqId = 777;
  Req.WantDump = true;
  Req.Sources = workload(Seed);
  WireResponse Resp;
  std::string Err;
  ASSERT_TRUE(Client.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  EXPECT_EQ(Resp.DumpText, localDump(Seed));
  Client.close();
}

} // namespace

TEST(NetFaultTest, TornWritesAreAbsorbedByRetry) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    CompileServer Server(serverConfig());
    std::string Err;
    ASSERT_TRUE(Server.start(Err)) << Err;

    std::string Reference = localDump(40 + Seed);
    uint64_t Fired = 0;
    {
      FaultConfig FC;
      FC.Seed = Seed;
      FC.TornWriteRate = 0.2;
      ScopedFaultInjector Injector(FC);

      ClientConfig CC;
      CC.Port = Server.port();
      CC.MaxRetries = 48;
      CC.JitterSeed = Seed;
      CC.BackoffBaseMillis = 1;
      CompileClient Client(CC);
      for (int J = 0; J < 6; ++J) {
        WireRequest Req;
        Req.ReqId = uint64_t(J) + 1;
        Req.WantDump = true;
        Req.Sources = workload(40 + Seed);
        WireResponse Resp;
        std::string CompileErr;
        ASSERT_TRUE(Client.compile(Req, Resp, CompileErr))
            << "seed " << Seed << " job " << J << ": " << CompileErr;
        EXPECT_EQ(Resp.Status, WireStatus::Ok);
        // Torn frames must corrupt nothing: a request either fails
        // visibly or round-trips exactly.
        EXPECT_EQ(Resp.DumpText, Reference) << "seed " << Seed;
      }
      Client.close();
      Fired = Injector.injector().stats().TornWrites;
    }
    EXPECT_GT(Fired, 0u) << "matrix was vacuous at seed " << Seed;
    expectByteIdenticalRound(Server.port(), 40 + Seed);
    Server.requestDrain();
    Server.waitDrained();
  }
}

TEST(NetFaultTest, DisconnectMidJobLeavesServerServing) {
  for (uint64_t Seed : {5u, 6u, 7u}) {
    CompileServer Server(serverConfig());
    std::string Err;
    ASSERT_TRUE(Server.start(Err)) << Err;

    uint64_t Fired = 0;
    uint64_t Succeeded = 0;
    {
      FaultConfig FC;
      FC.Seed = Seed;
      FC.NetDisconnectRate = 0.25;
      ScopedFaultInjector Injector(FC);

      ClientConfig CC;
      CC.Port = Server.port();
      CC.MaxRetries = 48;
      CC.JitterSeed = Seed;
      CC.BackoffBaseMillis = 1;
      CompileClient Client(CC);
      for (int J = 0; J < 8; ++J) {
        WireRequest Req;
        Req.ReqId = uint64_t(J) + 1;
        Req.Sources = workload(uint64_t(J), 0.03);
        WireResponse Resp;
        std::string CompileErr;
        if (Client.compile(Req, Resp, CompileErr) &&
            Resp.Status == WireStatus::Ok)
          ++Succeeded;
      }
      Client.close();
      Fired = Injector.injector().stats().Disconnects;
    }
    EXPECT_GT(Fired, 0u) << "matrix was vacuous at seed " << Seed;
    // Retry over fresh connections shrugs the drops off.
    EXPECT_EQ(Succeeded, 8u) << "seed " << Seed;
    // Orphans (if a drop raced a completing job) are accounted, and the
    // server is fully healthy afterwards.
    expectByteIdenticalRound(Server.port(), 50 + Seed);
    Server.requestDrain();
    Server.waitDrained();
  }
}

TEST(NetFaultTest, SlowPeersOnlySlowThingsDown) {
  CompileServer Server(serverConfig());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  uint64_t Fired = 0;
  {
    FaultConfig FC;
    FC.Seed = 9;
    FC.NetReadDelayRate = 0.5;
    FC.NetReadDelayMicros = 5000;
    ScopedFaultInjector Injector(FC);

    ClientConfig CC;
    CC.Port = Server.port();
    CC.MaxRetries = 8;
    CompileClient Client(CC);
    std::string Reference = localDump(60);
    for (int J = 0; J < 4; ++J) {
      WireRequest Req;
      Req.ReqId = uint64_t(J) + 1;
      Req.WantDump = true;
      Req.Sources = workload(60);
      WireResponse Resp;
      std::string CompileErr;
      ASSERT_TRUE(Client.compile(Req, Resp, CompileErr)) << CompileErr;
      EXPECT_EQ(Resp.DumpText, Reference);
    }
    Client.close();
    Fired = Injector.injector().stats().ReadDelays;
  }
  EXPECT_GT(Fired, 0u);
  Server.requestDrain();
  Server.waitDrained();
}

TEST(NetFaultTest, WriteTimeoutBoundsAStalledPeer) {
  // The slow-client guard at its root: a peer that never reads cannot
  // pin a writer past its timeout. 64 MiB into a full pipe must fail in
  // bounded time, not block forever.
  uint16_t Port = 0;
  std::string Err;
  Socket Listener = listenTcp(Port, Err);
  ASSERT_TRUE(Listener.valid()) << Err;
  Socket Client = connectTcp(Port, 2000, Err);
  ASSERT_TRUE(Client.valid()) << Err;
  ASSERT_GE(waitReadable(Listener.fd(), 2000), 1);
  Socket Accepted = acceptConn(Listener.fd());
  ASSERT_TRUE(Accepted.valid());

  std::vector<uint8_t> Huge(64u << 20, 0xAB);
  auto Start = std::chrono::steady_clock::now();
  bool OK = sendAll(Accepted.fd(), Huge.data(), Huge.size(), 150);
  double Sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_FALSE(OK);
  EXPECT_LT(Sec, 5.0) << "write timeout did not bound the stall";
}

TEST(NetFaultTest, StalledReaderDoesNotWedgeTheServer) {
  ServerConfig Cfg = serverConfig();
  Cfg.WriteTimeoutMs = 200;
  CompileServer Server(std::move(Cfg));
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  // A rude peer: sends dump-heavy requests, never reads a byte back.
  std::string RudeErr;
  Socket Rude = connectTcp(Server.port(), 2000, RudeErr);
  ASSERT_TRUE(Rude.valid()) << RudeErr;
  std::vector<uint8_t> Bytes;
  encodeHello(Bytes, WireHello{});
  for (uint64_t I = 1; I <= 6; ++I) {
    WireRequest Req;
    Req.ReqId = I;
    Req.WantDump = true;
    Req.Sources = workload(I, 0.05);
    encodeRequest(Bytes, Req);
  }
  ASSERT_TRUE(sendAll(Rude.fd(), Bytes.data(), Bytes.size(), 5000));

  // Meanwhile polite clients must keep getting answers promptly — the
  // rude peer can cost at most WriteTimeoutMs per owed response, never a
  // wedged worker.
  expectByteIdenticalRound(Server.port(), 70);
  expectByteIdenticalRound(Server.port(), 71);

  Rude.close();
  Server.requestDrain();
  Server.waitDrained();
}

TEST(NetFaultTest, CombinedFaultMatrixUnderLoad) {
  for (uint64_t Seed : {11u, 12u}) {
    CompileServer Server(serverConfig());
    std::string Err;
    ASSERT_TRUE(Server.start(Err)) << Err;

    FaultInjector::Stats FiredStats;
    LoadGenReport Rep;
    {
      FaultConfig FC;
      FC.Seed = Seed;
      FC.TornWriteRate = 0.08;
      FC.NetDisconnectRate = 0.08;
      FC.NetReadDelayRate = 0.15;
      FC.NetReadDelayMicros = 2000;
      ScopedFaultInjector Injector(FC);

      LoadGenConfig LG;
      LG.Port = Server.port();
      LG.NumRequests = 12;
      LG.Connections = 3;
      LG.Seed = Seed;
      LG.SourceScale = 0.02;
      LG.Variants = 3;
      LG.MaxRetries = 48;
      Rep = runLoadGen(LG);
      FiredStats = Injector.injector().stats();
    }
    // Every scheduled request is accounted for: answered or gave up.
    EXPECT_EQ(Rep.Completed + Rep.GaveUp, Rep.Scheduled) << "seed " << Seed;
    EXPECT_GT(Rep.Completed, 0u) << "seed " << Seed;
    EXPECT_GT(FiredStats.TornWrites + FiredStats.Disconnects +
                  FiredStats.ReadDelays,
              0u)
        << "matrix was vacuous at seed " << Seed;

    // And after the storm: the same server, byte-identical answers.
    expectByteIdenticalRound(Server.port(), 80 + Seed);

    Server.requestDrain();
    Server.waitDrained();
    ServerStats St = Server.snapshot();
    EXPECT_GE(St.ResponsesSent, Rep.Completed);
  }
}
