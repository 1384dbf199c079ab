//===----------------------------------------------------------------------===//
//
// End-to-end tests of the networked compile service: results over the
// wire are byte-identical to local compiles, admission refusals surface
// as RetryAfter (and the client's backoff machinery recovers), responses
// flow out of order per connection, graceful drain answers everything it
// admitted, and idle connections are reaped (unless kept alive by Ping).
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "net/Client.h"
#include "net/Server.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
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

/// The ground truth: the same job compiled locally, in-process.
BatchResult localCompile(std::vector<SourceInput> Sources) {
  BatchJob Job;
  Job.Sources = std::move(Sources);
  Job.WantDump = true;
  std::vector<BatchJob> Jobs;
  Jobs.push_back(std::move(Job));
  std::vector<BatchResult> Results = compileBatch(std::move(Jobs), 1);
  return std::move(Results.at(0));
}

struct TestServer {
  CompileServer Server;
  uint16_t Port = 0;

  explicit TestServer(ServerConfig Cfg) : Server(std::move(Cfg)) {
    std::string Err;
    EXPECT_TRUE(Server.start(Err)) << Err;
    Port = Server.port();
  }

  static ServerConfig base() {
    ServerConfig Cfg;
    Cfg.Service.Threads = 2;
    return Cfg;
  }
};

/// Raw pipelined peer: Hello + all of \p Reqs back-to-back on one
/// connection, then collect every answer until \p Expected answers
/// arrived (or Goodbye/close/timeout). Exercises server paths a polite
/// one-at-a-time client never hits.
struct RawPipelined {
  std::map<uint64_t, WireResponse> Responses;
  std::map<uint64_t, WireRetryAfter> Retries;
  std::vector<uint64_t> ResponseOrder;
  bool SawGoodbye = false;
};

void pipelineRaw(uint16_t Port, const std::vector<WireRequest> &Reqs,
                 size_t Expected, RawPipelined &Out) {
  std::string Err;
  Socket S = connectTcp(Port, 2000, Err);
  ASSERT_TRUE(S.valid()) << Err;
  std::vector<uint8_t> Bytes;
  encodeHello(Bytes, WireHello{});
  for (const WireRequest &R : Reqs)
    encodeRequest(Bytes, R);
  EXPECT_TRUE(sendAll(S.fd(), Bytes.data(), Bytes.size(), 5000));

  FrameReader Reader;
  uint8_t Buf[64 * 1024];
  size_t Answers = 0;
  while (Answers < Expected && !Out.SawGoodbye) {
    Frame F;
    Decode D;
    while ((D = Reader.next(F)) == Decode::Ok) {
      std::string DecErr;
      if (F.type() == MsgType::CompileResponse) {
        WireResponse R;
        ASSERT_TRUE(decodeResponse(F.Payload, F.PayloadLen, R, DecErr))
            << DecErr;
        Out.ResponseOrder.push_back(R.ReqId);
        Out.Responses[R.ReqId] = std::move(R);
        ++Answers;
      } else if (F.type() == MsgType::RetryAfter) {
        WireRetryAfter R;
        ASSERT_TRUE(decodeRetryAfter(F.Payload, F.PayloadLen, R, DecErr))
            << DecErr;
        Out.Retries[R.ReqId] = std::move(R);
        ++Answers;
      } else if (F.type() == MsgType::Goodbye) {
        Out.SawGoodbye = true;
      }
    }
    ASSERT_NE(D, Decode::Error) << Reader.error();
    if (Answers >= Expected || Out.SawGoodbye)
      break;
    size_t Got = 0;
    RecvStatus RS = recvSome(S.fd(), Buf, sizeof(Buf), Got, 30000);
    if (RS != RecvStatus::Data)
      break;
    Reader.feed(Buf, Got);
  }
}

} // namespace

TEST(NetServiceTest, WireCompileIsByteIdenticalToLocal) {
  TestServer TS(TestServer::base());
  std::vector<SourceInput> Sources = workload(11);
  BatchResult Local = localCompile(Sources);
  ASSERT_EQ(Local.Status, JobStatus::Ok);
  ASSERT_FALSE(Local.DumpText.empty());

  ClientConfig CC;
  CC.Port = TS.Port;
  CompileClient Client(CC);
  std::string Err;
  ASSERT_TRUE(Client.connect(Err)) << Err;
  WireRequest Req;
  Req.ReqId = 1;
  Req.WantDump = true;
  Req.Sources = Sources;
  WireResponse Resp;
  ASSERT_EQ(Client.call(Req, Resp), CallStatus::Response) << Client.error();
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  EXPECT_EQ(Resp.HadErrors, Local.HadErrors);
  // The tentpole correctness pin: the network layer adds transport, not
  // semantics — dump and diagnostics cross the wire byte-identical.
  EXPECT_EQ(Resp.DumpText, Local.DumpText);
  EXPECT_EQ(Resp.DiagText, Local.DiagText);
  Client.close();
}

TEST(NetServiceTest, ManyClientsEachGetTheirOwnAnswer) {
  TestServer TS(TestServer::base());
  const int NumClients = 4;
  std::vector<std::string> WireDumps(NumClients), LocalDumps(NumClients);
  std::vector<std::thread> Threads;
  for (int C = 0; C < NumClients; ++C) {
    Threads.emplace_back([&, C] {
      std::vector<SourceInput> Sources = workload(100 + C);
      LocalDumps[C] = localCompile(Sources).DumpText;
      ClientConfig CC;
      CC.Port = TS.Port;
      CC.JitterSeed = C + 1;
      CompileClient Client(CC);
      WireRequest Req;
      Req.ReqId = uint64_t(C) + 1;
      Req.WantDump = true;
      Req.Sources = std::move(Sources);
      WireResponse Resp;
      std::string Err;
      if (Client.compile(Req, Resp, Err))
        WireDumps[C] = Resp.DumpText;
      Client.close();
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (int C = 0; C < NumClients; ++C) {
    ASSERT_FALSE(WireDumps[C].empty()) << "client " << C << " got no answer";
    EXPECT_EQ(WireDumps[C], LocalDumps[C]) << "client " << C;
  }
  // Distinct workloads must produce distinct dumps — a routing bug that
  // crossed answers would have tripped the equality above anyway.
  EXPECT_NE(WireDumps[0], WireDumps[1]);
}

TEST(NetServiceTest, ResponsesFlowOutOfOrderPerConnection) {
  ServerConfig Cfg = TestServer::base();
  Cfg.Service.Threads = 2;
  Cfg.MaxInFlightPerConn = 4;
  TestServer TS(Cfg);

  WireRequest Big;
  Big.ReqId = 1;
  Big.Sources = workload(7, 0.15); // ~100ms-class job
  WireRequest Tiny;
  Tiny.ReqId = 2;
  Tiny.Sources = workload(8, 0.01);

  RawPipelined R;
  pipelineRaw(TS.Port, {Big, Tiny}, 2, R);
  ASSERT_EQ(R.Responses.size(), 2u);
  ASSERT_EQ(R.ResponseOrder.size(), 2u);
  // The tiny job overtakes the big one: responses are per-job, not
  // head-of-line blocked behind the connection's oldest request.
  EXPECT_EQ(R.ResponseOrder[0], 2u);
  EXPECT_EQ(R.ResponseOrder[1], 1u);
}

TEST(NetServiceTest, QueueOverflowSurfacesAsRetryAfter) {
  ServerConfig Cfg = TestServer::base();
  Cfg.Service.Threads = 1;
  Cfg.Service.MaxQueueDepth = 1;
  Cfg.Service.Policy = QueuePolicy::RejectNewest;
  Cfg.MaxInFlightPerConn = 16; // let the service, not the conn cap, refuse
  TestServer TS(Cfg);

  std::vector<WireRequest> Reqs;
  for (uint64_t I = 1; I <= 6; ++I) {
    WireRequest R;
    R.ReqId = I;
    R.Sources = workload(I, 0.05);
    Reqs.push_back(std::move(R));
  }
  RawPipelined R;
  pipelineRaw(TS.Port, Reqs, Reqs.size(), R);
  EXPECT_EQ(R.Responses.size() + R.Retries.size(), Reqs.size());
  // 1 running + 1 queued: at least some of the burst was refused, and
  // the refusals carried an explicit retry hint.
  ASSERT_GE(R.Retries.size(), 1u);
  EXPECT_GE(R.Responses.size(), 1u);
  for (const auto &Entry : R.Retries)
    EXPECT_GT(Entry.second.RetryAfterMillis, 0u);
  EXPECT_GE(TS.Server.snapshot().RetryAfterSent, R.Retries.size());
}

TEST(NetServiceTest, ClientRetryRecoversFromOverload) {
  ServerConfig Cfg = TestServer::base();
  Cfg.Service.Threads = 1;
  Cfg.Service.MaxQueueDepth = 1;
  Cfg.Service.Policy = QueuePolicy::RejectNewest;
  TestServer TS(Cfg);

  // Several aggressive clients against a tiny queue: with backoff and
  // RetryAfter honored, every request must eventually complete.
  const int NumClients = 4;
  std::atomic<int> Succeeded{0};
  std::atomic<uint64_t> RetriesSeen{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < NumClients; ++C) {
    Threads.emplace_back([&, C] {
      ClientConfig CC;
      CC.Port = TS.Port;
      CC.JitterSeed = C + 1;
      CC.MaxRetries = 32;
      CompileClient Client(CC);
      for (int J = 0; J < 3; ++J) {
        WireRequest Req;
        Req.ReqId = uint64_t(C * 100 + J);
        Req.Sources = workload(uint64_t(C * 10 + J), 0.03);
        WireResponse Resp;
        std::string Err;
        if (Client.compile(Req, Resp, Err) && Resp.Status == WireStatus::Ok)
          ++Succeeded;
      }
      RetriesSeen += Client.stats().RetryAfterSeen;
      Client.close();
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Succeeded.load(), NumClients * 3);
}

TEST(NetServiceTest, PerConnectionInFlightCapIsEnforced) {
  ServerConfig Cfg = TestServer::base();
  Cfg.Service.Threads = 1;
  Cfg.MaxInFlightPerConn = 1;
  TestServer TS(Cfg);

  std::vector<WireRequest> Reqs;
  for (uint64_t I = 1; I <= 4; ++I) {
    WireRequest R;
    R.ReqId = I;
    R.Sources = workload(I, 0.05);
    Reqs.push_back(std::move(R));
  }
  RawPipelined R;
  pipelineRaw(TS.Port, Reqs, Reqs.size(), R);
  ASSERT_GE(R.Retries.size(), 1u);
  bool SawCapReason = false;
  for (const auto &Entry : R.Retries)
    SawCapReason |= Entry.second.Reason.find("in-flight cap") !=
                    std::string::npos;
  EXPECT_TRUE(SawCapReason);
}

TEST(NetServiceTest, GracefulDrainAnswersEverythingAdmitted) {
  ServerConfig Cfg = TestServer::base();
  Cfg.Service.Threads = 1;
  TestServer TS(Cfg);

  std::string Err;
  Socket S = connectTcp(TS.Port, 2000, Err);
  ASSERT_TRUE(S.valid()) << Err;
  std::vector<uint8_t> Bytes;
  encodeHello(Bytes, WireHello{});
  WireRequest Slow;
  Slow.ReqId = 1;
  Slow.Sources = workload(5, 0.15); // keeps the drain busy for a while
  encodeRequest(Bytes, Slow);
  ASSERT_TRUE(sendAll(S.fd(), Bytes.data(), Bytes.size(), 5000));

  // Start the drain as soon as the job is admitted, while it still runs.
  // A drain with nothing in flight says Goodbye at once, and a request
  // racing that Goodbye is not owed an answer.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (TS.Server.snapshot().RequestsAdmitted == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(TS.Server.snapshot().RequestsAdmitted, 1u);
  TS.Server.requestDrain();
  EXPECT_TRUE(TS.Server.draining());

  // A request sent after the drain started must be refused, not dropped.
  WireRequest Late;
  Late.ReqId = 2;
  Late.Sources = workload(6, 0.01);
  std::vector<uint8_t> LateBytes;
  encodeRequest(LateBytes, Late);
  ASSERT_TRUE(sendAll(S.fd(), LateBytes.data(), LateBytes.size(), 5000));

  // Collect until the server hangs up.
  FrameReader Reader;
  uint8_t Buf[64 * 1024];
  bool SawResponse1 = false, SawRetry2 = false, SawGoodbye = false;
  for (;;) {
    Frame F;
    Decode D;
    while ((D = Reader.next(F)) == Decode::Ok) {
      std::string DecErr;
      if (F.type() == MsgType::CompileResponse) {
        WireResponse R;
        ASSERT_TRUE(decodeResponse(F.Payload, F.PayloadLen, R, DecErr));
        if (R.ReqId == 1) {
          EXPECT_EQ(R.Status, WireStatus::Ok);
          // The admitted job was answered before the Goodbye — the drain
          // ordering contract.
          EXPECT_FALSE(SawGoodbye);
          SawResponse1 = true;
        }
      } else if (F.type() == MsgType::RetryAfter) {
        WireRetryAfter R;
        ASSERT_TRUE(decodeRetryAfter(F.Payload, F.PayloadLen, R, DecErr));
        if (R.ReqId == 2)
          SawRetry2 = true;
      } else if (F.type() == MsgType::Goodbye) {
        SawGoodbye = true;
      }
    }
    ASSERT_NE(D, Decode::Error) << Reader.error();
    size_t Got = 0;
    RecvStatus RS = recvSome(S.fd(), Buf, sizeof(Buf), Got, 30000);
    if (RS != RecvStatus::Data)
      break;
    Reader.feed(Buf, Got);
  }
  EXPECT_TRUE(SawResponse1) << "admitted job was not answered before close";
  EXPECT_TRUE(SawRetry2) << "late request was dropped instead of refused";
  EXPECT_TRUE(SawGoodbye);

  TS.Server.waitDrained();
  EXPECT_EQ(TS.Server.liveConnections(), 0u);
  ServerStats St = TS.Server.snapshot();
  EXPECT_EQ(St.ResponsesSent, 1u);
  EXPECT_GE(St.RetryAfterSent, 1u);
  EXPECT_EQ(St.OrphanedResults, 0u);
}

TEST(NetServiceTest, DrainWithNoTrafficCompletesQuickly) {
  TestServer TS(TestServer::base());
  TS.Server.requestDrain();
  TS.Server.waitDrained();
  EXPECT_EQ(TS.Server.liveConnections(), 0u);
}

TEST(NetServiceTest, IdleConnectionsAreReaped) {
  ServerConfig Cfg = TestServer::base();
  Cfg.IdleTimeoutMs = 100;
  TestServer TS(Cfg);

  std::string Err;
  Socket S = connectTcp(TS.Port, 2000, Err);
  ASSERT_TRUE(S.valid()) << Err;
  std::vector<uint8_t> Hello;
  encodeHello(Hello, WireHello{});
  ASSERT_TRUE(sendAll(S.fd(), Hello.data(), Hello.size(), 2000));

  // Go quiet; the server must hang up on its own.
  uint8_t Buf[256];
  size_t Got = 0;
  RecvStatus RS = RecvStatus::Timeout;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < Deadline) {
    RS = recvSome(S.fd(), Buf, sizeof(Buf), Got, 200);
    if (RS == RecvStatus::Closed || RS == RecvStatus::Error)
      break;
  }
  EXPECT_EQ(RS, RecvStatus::Closed);
  EXPECT_GE(TS.Server.snapshot().IdleReaped, 1u);
}

TEST(NetServiceTest, PingDefeatsIdleReaping) {
  ServerConfig Cfg = TestServer::base();
  Cfg.IdleTimeoutMs = 150;
  TestServer TS(Cfg);

  ClientConfig CC;
  CC.Port = TS.Port;
  CompileClient Client(CC);
  std::string Err;
  ASSERT_TRUE(Client.connect(Err)) << Err;
  // Keep pinging well past several idle windows.
  for (int I = 0; I < 8; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(Client.ping()) << "reaped despite keepalives, round " << I;
  }
  // And the connection still compiles.
  WireRequest Req;
  Req.ReqId = 1;
  Req.Sources = workload(3);
  WireResponse Resp;
  EXPECT_EQ(Client.call(Req, Resp), CallStatus::Response) << Client.error();
  EXPECT_EQ(TS.Server.snapshot().IdleReaped, 0u);
  Client.close();
}

TEST(NetServiceTest, BackoffHonorsServerHintAndCap) {
  ClientConfig CC;
  CC.BackoffBaseMillis = 10;
  CC.BackoffCapMillis = 200;
  CC.JitterSeed = 42;
  CompileClient Client(CC);
  // The server hint is a floor.
  EXPECT_GE(Client.backoffMillis(0, 500), 500u);
  // Without a hint: within [sched/2, sched], sched capped.
  for (uint32_t A = 0; A < 12; ++A) {
    uint64_t D = Client.backoffMillis(A, 0);
    uint64_t Sched = std::min<uint64_t>(uint64_t(10) << A, 200);
    EXPECT_GE(D, Sched / 2) << "attempt " << A;
    EXPECT_LE(D, Sched) << "attempt " << A;
  }
  // Deterministic per (seed, attempt).
  CompileClient Client2(CC);
  for (uint32_t A = 0; A < 5; ++A)
    EXPECT_EQ(Client.backoffMillis(A, 0), Client2.backoffMillis(A, 0));
}
