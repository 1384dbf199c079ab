//===----------------------------------------------------------------------===//
///
/// \file
/// serve_mixed: an in-process CompileServer on loopback (two service
/// workers, default ServiceConfig: artifact cache and warm contexts on)
/// under an open loop of seeded wire traffic at one fixed offered rate.
/// The traffic mixes the five valid program families, the four
/// adversarial ones (which stop in the frontend's error path), exact
/// repeats of earlier requests (cache hits, where first occurrences are
/// inserts) and a share of interactive-lane requests. This is the only
/// workload through net, admission, the queue, ArtifactCache and
/// ContextPool.
///
/// Each request is timed from its scheduled send time, so a stall also
/// delays the requests behind it. The load comes from blocking
/// CompileClient connections, each with one request in flight; there are
/// enough of them that the schedule, not the connection pool, sets the
/// send times (net.loadgen.lag_ms_p90 shows how late the generator ran).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "net/Client.h"
#include "net/Server.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

using namespace mpc;
using namespace mpc::net;

namespace perfbench {
namespace {

/// Repeats point at least this many schedule slots back, so the original
/// has been answered (and cached) by the time its repeat is sent.
constexpr size_t MinRepeatGap = 32;

/// Client connections of the load generator, service workers, and the
/// mean program-size scale of the generated families.
constexpr unsigned Connections = 8;
constexpr unsigned ServiceThreads = 2;
constexpr double FamilyScale = 4;

/// Offered rate in requests/s, fixed so a faster server does not move its
/// own target. Measured on the 4-vCPU host the benchmark was built on:
/// the two workers stay under a third busy even when the host runs at
/// half speed, so the backlog never grows. Queue wait is then a small
/// part of the p90 (0.1-2.4 ms of 10-16 ms); at 150 requests/s it was
/// larger, but the p90 spread from run to run grew with it.
constexpr double Rate = 100;

/// Latency limit of slo_share, two to three times the p90 latency.
constexpr double SloMs = 40;

/// The schedule runs in Segments parts (three seconds each in a 30-s
/// run); before, between and after them the speed probe takes
/// ProbeSamples samples (about 20 ms each). Single samples scatter by
/// 20-30% on a shared host, so each gap takes a dozen.
constexpr size_t Segments = 10;
constexpr unsigned ProbeSamples = 12;

/// The traffic shares. They are assumptions chosen for coverage, not a
/// characterization of observed traffic: enough repeats that the cache
/// hit path and its counters are measured on every run (a cold batch
/// hits 0%, the edit loop of bench_cache_warm_edit 93.8%); enough
/// adversarial requests for a steady error-path share (ServiceSoakTest
/// sends 35% erroneous jobs, 15% of them from these families); and
/// interactive requests near ServiceSoakTest's 25%. Repeats and
/// adversarial requests are the fast ones; together they stay well
/// under half of the traffic, so p50 and p90 both fall among the
/// compiles, not on the edge between two latency clusters.
constexpr double RepeatShare = 0.25;
constexpr double AdversarialShare = 0.2;
constexpr double InteractiveShare = 0.2;

struct Request {
  /// Scheduled send time, seconds after the schedule starts.
  double AtSec = 0;
  Family F = Family::Mixed;
  bool Interactive = false;
  /// Schedule index of the first occurrence (== own index if new).
  size_t Original = 0;
  /// Generator seed and size of the program (a repeat shares its
  /// original's).
  uint64_t ProgramSeed = 0;
  double Scale = 1;
};

/// The seeded schedule: Poisson arrivals at the offered rate (independent
/// users), and which program each slot sends. Programs are generated
/// one segment at a time, in the untimed gap before the segment, so the
/// schedule stays small at any length.
std::vector<Request> makeSchedule(const Options &O, size_t N) {
  static const Family Valid[] = {Family::Mixed, Family::DeepInheritance,
                                 Family::ClosureHeavy, Family::MegaMethods,
                                 Family::ManyTinyUnits};
  static const Family Adversarial[] = {Family::Truncated,
                                       Family::TokenMutation,
                                       Family::UnbalancedDelims,
                                       Family::TypeErrorSeeded};
  auto Unit = [&](uint64_t I, uint64_t Salt) {
    return double(mixSeed(O.Seed, I * 8 + Salt) >> 11) / double(1ull << 53);
  };
  std::vector<Request> Schedule(N);
  std::vector<size_t> Originals;
  size_t Eligible = 0; // originals at least MinRepeatGap slots back
  double At = 0;
  for (size_t I = 0; I < N; ++I) {
    Request &Rq = Schedule[I];
    Rq.AtSec = At;
    At += -std::log(1 - Unit(I, 6)) / Rate;
    Rq.Interactive = Unit(I, 0) < InteractiveShare;
    while (Eligible < Originals.size() &&
           Originals[Eligible] + MinRepeatGap <= I)
      ++Eligible;
    if (Eligible > 0 && Unit(I, 1) < RepeatShare) {
      size_t J = Originals[mixSeed(O.Seed, I * 8 + 2) % Eligible];
      Rq.Original = J;
      Rq.F = Schedule[J].F;
      Rq.ProgramSeed = Schedule[J].ProgramSeed;
      Rq.Scale = Schedule[J].Scale;
      continue;
    }
    Rq.Original = I;
    uint64_t Pick = mixSeed(O.Seed, I * 8 + 3);
    Rq.F = Unit(I, 4) < AdversarialShare ? Adversarial[Pick % 4]
                                           : Valid[Pick % 5];
    Rq.ProgramSeed = mixSeed(O.Seed, I * 8 + 5);
    // Sizes spread uniformly over scale 2..6 (about 60 to 1600 lines
    // depending on the family, against the ~2.3k lines of a compile_batch
    // program). Like the shares, the range is an assumption: it keeps
    // compiles the bulk of the latency and leaves no gaps between
    // per-family clusters for a quantile to jump across.
    Rq.Scale = FamilyScale * (0.5 + Unit(I, 7));
    Originals.push_back(I);
  }
  return Schedule;
}

/// What one scheduled request produced.
struct Outcome {
  bool Answered = false;
  Clock::time_point Sched, Send, Recv;
  WireResponse Resp;
  bool CacheReplay = false;
  double latencyMs() const { return msBetween(Sched, Recv); }
  double compileMs() const {
    return double(Resp.FrontendMicros + Resp.TransformMicros +
                  Resp.BackendMicros) /
           1000;
  }
};

/// The running system of one set-up: server plus connected clients.
struct Rig {
  std::unique_ptr<CompileServer> Server;
  std::vector<std::unique_ptr<CompileClient>> Clients;
  ~Rig() {
    for (auto &C : Clients)
      C->close();
    Clients.clear();
    Server.reset(); // graceful drain + join
  }
};

/// Starts a server, connects the clients and warms both up with
/// requests that are not in the schedule (so the cache starts empty of
/// scheduled programs). False + \p Err on failure.
bool startRig(const Options &O, Rig &G, std::string &Err) {
  ServerConfig SC;
  SC.Service.Threads = ServiceThreads;
  G.Server = std::make_unique<CompileServer>(SC);
  if (!G.Server->start(Err))
    return false;
  for (unsigned C = 0; C < Connections; ++C) {
    ClientConfig CC;
    CC.Port = G.Server->port();
    CC.JitterSeed = mixSeed(O.Seed, 1000 + C);
    CC.IoTimeoutMs = 30000;
    G.Clients.push_back(std::make_unique<CompileClient>(CC));
    if (!G.Clients.back()->connect(Err))
      return false;
  }
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      for (unsigned K = 0; K < 2; ++K) {
        WireRequest Req;
        Req.ReqId = K + 1;
        Req.Sources = generateFamily(Family::Mixed,
                                     mixSeed(O.Seed ^ 0x5eed, C * 2 + K),
                                     FamilyScale);
        WireResponse Resp;
        std::string E;
        if (!G.Clients[C]->compile(Req, Resp, E) ||
            Resp.Status != WireStatus::Ok || Resp.HadErrors)
          Ok = false;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (!Ok)
    Err = "warm-up request failed";
  return Ok;
}

/// Runs schedule slots [Begin, End) open-loop, slot Begin at \p T0; one
/// thread per client connection. \p Programs holds the sources of the
/// slots, in order; they are moved into the requests.
void runSchedule(Rig &G, const std::vector<Request> &Sched,
                 std::vector<Outcome> &Out, Clock::time_point T0,
                 size_t Begin, size_t End,
                 std::vector<std::vector<SourceInput>> &Programs) {
  std::atomic<size_t> Next{Begin};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < G.Clients.size(); ++C)
    Threads.emplace_back([&, C] {
      CompileClient &Client = *G.Clients[C];
      for (;;) {
        size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= End)
          break;
        Outcome &R = Out[I];
        R.Sched = T0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               Sched[I].AtSec - Sched[Begin].AtSec));
        WireRequest Req;
        Req.ReqId = I + 1;
        Req.Interactive = Sched[I].Interactive;
        Req.Sources = std::move(Programs[I - Begin]);
        std::string Err;
        std::this_thread::sleep_until(R.Sched);
        R.Send = Clock::now();
        R.Answered = Client.compile(Req, R.Resp, Err);
        R.Recv = Clock::now();
      }
    });
  for (std::thread &T : Threads)
    T.join();
}

uint64_t delta(const StatsRegistry &After, const StatsRegistry &Before,
               const char *Key) {
  return After.get(Key) - Before.get(Key);
}

} // namespace

Report runServeMixed(const Options &O) {
  Report R;
  size_t N = std::max<size_t>(
      1, static_cast<size_t>(Rate * O.Seconds + 0.5));
  std::vector<Request> Sched;
  Rig G;
  SpeedProbe Probe;
  double SetupSec = medianSetup(O.SetupReps, Probe, [&](bool Last) {
    Sched = makeSchedule(O, N);
    Rig Fresh;
    std::string Err;
    if (!startRig(O, Fresh, Err))
      R.problem("set-up: " + Err);
    if (Last)
      std::swap(G.Server, Fresh.Server), std::swap(G.Clients, Fresh.Clients);
  });
  if (!R.Problems.empty())
    return R;

  // Baselines, so the counters cover the scheduled requests only.
  G.Server->service().drain();
  StatsRegistry Before = G.Server->service().stats();
  ServerStats WireBefore = G.Server->snapshot();
  std::vector<ClientStats> ClientsBefore;
  for (auto &C : G.Clients)
    ClientsBefore.push_back(C->stats());

  // The schedule runs in segments. Between them the server is idle: the
  // speed probe samples then, so it never competes with the requests it
  // scales, and the next segment's programs are generated, so the
  // clients do nothing but send while requests are timed.
  std::vector<Outcome> Out(N);
  double WallSec = 0;
  for (size_t S = 0; S < Segments; ++S) {
    for (unsigned P = 0; P < ProbeSamples; ++P)
      Probe.sample();
    size_t Begin = N * S / Segments, End = N * (S + 1) / Segments;
    if (Begin == End)
      continue;
    std::vector<std::vector<SourceInput>> Programs;
    for (size_t I = Begin; I < End; ++I)
      Programs.push_back(
          generateFamily(Sched[I].F, Sched[I].ProgramSeed, Sched[I].Scale));
    Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
    runSchedule(G, Sched, Out, T0, Begin, End, Programs);
    Clock::time_point LastRecv = T0;
    for (size_t I = Begin; I < End; ++I)
      LastRecv = std::max(LastRecv, Out[I].Recv);
    WallSec += std::chrono::duration<double>(LastRecv - T0).count();
  }
  for (unsigned P = 0; P < ProbeSamples; ++P)
    Probe.sample();

  G.Server->service().drain();
  const StatsRegistry &After = G.Server->service().stats();
  ServerStats Wire = G.Server->snapshot();
  uint64_t RetryAfter = 0, Reconnects = 0, ClientProtoErrors = 0;
  for (size_t C = 0; C < G.Clients.size(); ++C) {
    const ClientStats &S = G.Clients[C]->stats();
    RetryAfter += S.RetryAfterSeen - ClientsBefore[C].RetryAfterSeen;
    Reconnects += S.Reconnects - ClientsBefore[C].Reconnects;
    ClientProtoErrors += S.ProtocolErrors - ClientsBefore[C].ProtocolErrors;
  }

  // Checks. The exact oracle: valid families compile clean, and
  // type-error-seeded programs (a class with seeded type errors appended)
  // are diagnosed. The truncation, token-mutation and delimiter-edit
  // generators can emit valid programs (a cut after a complete
  // definition, a duplicated separator, a stray pair of parentheses), so
  // for those only the answer's self-consistency is checked. Every repeat
  // must answer exactly like its first occurrence.
  uint64_t Ok = 0, Diagnosed = 0, WithinSlo = 0, Repeats = 0,
           AdversarialCount = 0, InteractiveCount = 0, Replays = 0;
  std::vector<double> Lat, RawLat, QueueMs, CompileMs, ResidualMs, LagMs;
  for (size_t I = 0; I < N; ++I) {
    Outcome &X = Out[I];
    const Request &Rq = Sched[I];
    bool IsRepeat = Rq.Original != I;
    Repeats += IsRepeat;
    AdversarialCount += !familyIsValid(Rq.F);
    InteractiveCount += Rq.Interactive;
    ++R.Attempted;
    std::string Where = "request " + std::to_string(I) + " (" +
                        familyName(Rq.F) + (IsRepeat ? ", repeat" : "") +
                        "): ";
    if (!X.Answered) {
      R.fail(Where + "no answer (refused or gave up)");
      continue;
    }
    RawLat.push_back(X.latencyMs());
    Lat.push_back(X.latencyMs() * Probe.scale(X.Send));
    LagMs.push_back(msBetween(X.Sched, X.Send));
    QueueMs.push_back(double(X.Resp.QueueWaitMicros) / 1000);
    if (X.Resp.Status != WireStatus::Ok) {
      R.fail(Where + (X.Resp.Status == WireStatus::Faulted
                          ? "Faulted"
                          : "DeadlineExceeded"));
      continue;
    }
    const WireResponse &First = Out[Rq.Original].Resp;
    bool Exact = familyIsValid(Rq.F) || Rq.F == Family::TypeErrorSeeded;
    std::string Bad;
    if (Exact && X.Resp.HadErrors == familyIsValid(Rq.F))
      Bad = X.Resp.HadErrors ? "diagnostics on a valid program"
                             : "an invalid program compiled clean";
    else if (X.Resp.HadErrors == X.Resp.DiagText.empty())
      Bad = "HadErrors disagrees with the diagnostic text";
    else if (IsRepeat && (X.Resp.HadErrors != First.HadErrors ||
                          X.Resp.DiagText != First.DiagText))
      Bad = "answer differs from the first occurrence";
    if (!Bad.empty()) {
      R.fail(Where + Bad);
      continue;
    }
    ++Ok;
    Diagnosed += X.Resp.HadErrors;
    // A cache replay carries the stored compile timings of the first
    // occurrence verbatim; a fresh compile never reproduces all three.
    X.CacheReplay = IsRepeat && X.Resp.FrontendMicros == First.FrontendMicros &&
                    X.Resp.TransformMicros == First.TransformMicros &&
                    X.Resp.BackendMicros == First.BackendMicros;
    Replays += X.CacheReplay;
    double Compile = X.CacheReplay ? 0 : X.compileMs();
    if (!X.CacheReplay)
      CompileMs.push_back(Compile);
    // The server times its queue wait and compile on the same clock as
    // the client, inside the client's round trip, and truncates them to
    // microseconds, so they can never exceed it.
    double Residual = msBetween(X.Send, X.Recv) -
                      double(X.Resp.QueueWaitMicros) / 1000 - Compile;
    if (Residual < -1e-3) {
      R.fail(Where + "server-reported durations exceed the round trip");
      continue;
    }
    ResidualMs.push_back(Residual);
    if (Lat.back() <= SloMs)
      ++WithinSlo;
  }

  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "serve_mixed: %zu requests offered at %.1f/s; repeats %.4f, "
                "adversarial %.4f, interactive %.4f, cache replays %.4f of "
                "all requests",
                N, Rate, double(Repeats) / double(N),
                double(AdversarialCount) / double(N),
                double(InteractiveCount) / double(N),
                double(Replays) / double(N));
  R.detail(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "serve_mixed: queue wait p50 %.3f p90 %.3f ms, generator lag "
                "p90 %.3f ms, latency limit %.1f ms",
                percentile(QueueMs, 50), percentile(QueueMs, 90),
                percentile(LagMs, 90), SloMs);
  R.detail(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "detail {\"repeat_share\": %g, \"adversarial_share\": %g, "
                "\"interactive_share\": %g, \"requests\": %zu, "
                "\"repeats\": %llu, \"adversarial\": %llu, "
                "\"interactive\": %llu, \"cache_replays\": %llu}",
                RepeatShare, AdversarialShare, InteractiveShare, N,
                static_cast<unsigned long long>(Repeats),
                static_cast<unsigned long long>(AdversarialCount),
                static_cast<unsigned long long>(InteractiveCount),
                static_cast<unsigned long long>(Replays));
  R.detail(Buf);

  if (!O.Trace) {
    reportEndToEnd(R, Lat, WallSec, SetupSec, double(WithinSlo) / double(N),
                   RawLat, Probe);
    return R;
  }

  // Spans of every answered request, rebuilt after the run from the
  // client timestamps and the durations the server reports in each
  // response. Nothing is recorded while requests run, so tracing adds no
  // time to them.
  Tracer T;
  std::vector<double> Traced;
  for (size_t I = 0; I < N; ++I) {
    const Outcome &X = Out[I];
    if (!X.Answered || X.Resp.Status != WireStatus::Ok)
      continue;
    Traced.push_back(X.latencyMs());
    int64_t Op = T.add(I, -1, "op", X.Sched, X.Recv);
    T.add(I, Op, "net.loadgen.lag", X.Sched, X.Send);
    int64_t Net = T.add(I, Op, "net.request", X.Send, X.Recv);
    Clock::time_point At = X.Send;
    auto Child = [&](const char *Name, uint64_t Micros) {
      Clock::time_point End = At + std::chrono::microseconds(Micros);
      T.add(I, Net, Name, At, End);
      At = End;
    };
    Child("driver.queue_wait", X.Resp.QueueWaitMicros);
    if (!X.CacheReplay) {
      Child("frontend", X.Resp.FrontendMicros);
      Child("core.pipeline", X.Resp.TransformMicros);
      Child("backend.codegen", X.Resp.BackendMicros);
    }
  }
  double OpMean = mean(Traced);
  std::map<std::string, double> Self =
      summarizeTrace(R, T, Traced.size(), OpMean);
  R.metric("frontend.self_ms", Self["frontend"], "ms");
  R.metric("frontend.diagnosed_share", Ok ? double(Diagnosed) / double(Ok) : 0,
           "share");
  R.metric("core.pipeline.self_ms", Self["core.pipeline"], "ms");
  R.metric("backend.codegen.self_ms", Self["backend.codegen"], "ms");
  // The op span is split exactly into generator lag and the wire
  // request; what the server's reported durations leave of the request
  // is the residual.
  R.metric("residual_ms", Self["op"] + Self["net.request"], "ms");
  R.metric("trace.op_ms", OpMean, "ms");
  R.metric("trace.overhead_ms", 0, "ms");
  R.metric("driver.queue_wait_ms_p50", percentile(QueueMs, 50), "ms");
  R.metric("driver.queue_wait_ms_p90", percentile(QueueMs, 90), "ms");
  R.metric("driver.compile_ms_p50", percentile(CompileMs, 50), "ms");
  uint64_t Hits = delta(After, Before, "service.cacheHits");
  uint64_t Misses = delta(After, Before, "service.cacheMisses");
  R.metric("driver.cache.hit_ratio",
           Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  R.metric("driver.cache.evictions",
           double(delta(After, Before, "service.cacheEvictions")), "count");
  double BusySec = double(delta(After, Before, "service.busyMicros")) / 1e6;
  R.metric("driver.service.utilization",
           WallSec > 0 ? BusySec / (WallSec * ServiceThreads) : 0, "share");
  R.metric("driver.service.contexts_reused_ratio",
           Misses ? double(delta(After, Before, "service.contextsReused")) /
                        double(Misses)
                  : 0,
           "ratio");
  R.metric("driver.service.rejected",
           double(delta(After, Before, "service.jobsRejected")), "count");
  R.metric("driver.service.shed",
           double(delta(After, Before, "service.jobsShed")), "count");
  R.metric("net.residual_ms_p50", percentile(ResidualMs, 50), "ms");
  R.metric("net.residual_ms_p90", percentile(ResidualMs, 90), "ms");
  R.metric("net.retry_after", double(RetryAfter), "count");
  R.metric("net.reconnects", double(Reconnects), "count");
  R.metric("net.protocol_errors",
           double(Wire.ProtocolErrors - WireBefore.ProtocolErrors +
                  ClientProtoErrors),
           "count");
  R.metric("net.bytes_written",
           double(Wire.BytesWritten - WireBefore.BytesWritten), "bytes");
  R.metric("net.loadgen.lag_ms_p90", percentile(LagMs, 90), "ms");
  if (!T.write(O.TraceDir + "/serve_mixed.spans.jsonl"))
    R.problem("cannot write the span file under " + O.TraceDir);
  return R;
}

} // namespace perfbench
