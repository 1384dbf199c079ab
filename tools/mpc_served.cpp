//===----------------------------------------------------------------------===//
//
// mpc_served: the long-lived compile server binary.
//
//   mpc_served [--port N] [--threads N] [--queue-depth N]
//              [--policy reject|shed|block] [--max-inflight N]
//              [--idle-timeout-ms N] [--cache-mb N]
//
// Prints "listening on 127.0.0.1:<port>" once the socket is bound (with
// --port 0 the kernel picks the port — that line is how a harness learns
// it). SIGTERM/SIGINT trigger the graceful drain: stop accepting, answer
// every admitted job (or RetryAfter), Goodbye on every connection, then
// exit 0. The drain contract is what the tier-1 smoke test pins.
//
// Every value is checked before the server binds or starts a thread: a
// malformed or out-of-range value ends the run with status 2. --port 0
// asks for an ephemeral port and --threads 0 for one worker per core.
//
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "net/Server.h"

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace mpc;
using namespace mpc::net;

namespace {

// Self-pipe: the handler only writes one byte; all real shutdown work
// happens on the main thread, where it is allowed to take locks.
int SignalPipe[2] = {-1, -1};

void onSignal(int) {
  uint8_t B = 1;
  ssize_t Ignored = ::write(SignalPipe[1], &B, 1);
  (void)Ignored;
}

/// --threads starts one worker thread each.
constexpr uint64_t MaxThreads = 256;
constexpr uint64_t MiB = 1024 * 1024;

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Cfg;
  Cfg.Service.Threads = 2;
  Cfg.Service.MaxQueueDepth = 64;
  Cfg.Service.Policy = QueuePolicy::RejectNewest;

  ArgReader Args("mpc_served", Argc, Argv);
  while (Args.next()) {
    std::string A = Args.flag();
    if (A == "--port") {
      Cfg.Port = static_cast<uint16_t>(Args.integer(0, 65535));
    } else if (A == "--threads") {
      Cfg.Service.Threads = static_cast<unsigned>(Args.integer(0, MaxThreads));
    } else if (A == "--queue-depth") {
      Cfg.Service.MaxQueueDepth =
          static_cast<size_t>(Args.integer(0, SIZE_MAX));
    } else if (A == "--policy") {
      std::string P = Args.value();
      if (P == "reject")
        Cfg.Service.Policy = QueuePolicy::RejectNewest;
      else if (P == "shed")
        Cfg.Service.Policy = QueuePolicy::ShedOldest;
      else if (P == "block")
        Cfg.Service.Policy = QueuePolicy::Block;
      else
        Args.fail("unknown policy '" + P + "'");
    } else if (A == "--max-inflight") {
      Cfg.MaxInFlightPerConn =
          static_cast<uint32_t>(Args.integer(1, UINT32_MAX));
    } else if (A == "--idle-timeout-ms") {
      Cfg.IdleTimeoutMs = static_cast<int>(Args.integer(0, INT_MAX));
    } else if (A == "--cache-mb") {
      Cfg.Service.Cache.MaxBytes = Args.integer(0, SIZE_MAX / MiB) * MiB;
    } else {
      Args.fail("unknown flag '" + A + "'");
    }
  }

  if (::pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "mpc_served: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  CompileServer Server(Cfg);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "mpc_served: start failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", unsigned(Server.port()));
  std::fflush(stdout);

  // Park until a signal arrives (EINTR restarts are expected here).
  uint8_t B = 0;
  for (;;) {
    ssize_t N = ::read(SignalPipe[0], &B, 1);
    if (N == 1)
      break;
    if (N < 0 && errno == EINTR)
      continue;
    break; // pipe broken — treat as shutdown
  }

  std::printf("draining\n");
  std::fflush(stdout);
  Server.requestDrain();
  Server.waitDrained();

  ServerStats St = Server.snapshot();
  std::printf("drained: %llu conns, %llu admitted, %llu responses, "
              "%llu retry-after, %llu protocol-errors, %llu orphaned\n",
              static_cast<unsigned long long>(St.ConnectionsAccepted),
              static_cast<unsigned long long>(St.RequestsAdmitted),
              static_cast<unsigned long long>(St.ResponsesSent),
              static_cast<unsigned long long>(St.RetryAfterSent),
              static_cast<unsigned long long>(St.ProtocolErrors),
              static_cast<unsigned long long>(St.OrphanedResults));
  std::fflush(stdout);
  return 0;
}
