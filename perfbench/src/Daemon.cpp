//===- perfbench/src/Daemon.cpp - daemon-mixed ----------------------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// A closed loop of two client threads against a `relcd serve -workers 2`
// child over its Unix socket. Clients equal workers, so a live request
// never queues behind another for a worker, and the clients, the daemon and
// its workers fit the four cores (four clients mostly measured contention).
// Requests follow a seeded schedule in blocks of 100, with service_load's
// 90/10 hot/cold split (Schedule): 80 repeats of the seven warmed
// single-program shapes (reply memo), 10 shapes the memo does not hold over
// cached verdicts of five programs (memo miss, disk-cache hit, one worker
// job), and 10 never-seen TV budgets over utf8 or ip (memo and disk miss,
// live certification in a worker).
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Workloads.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace relc;
using namespace relc::service;

namespace pb {

namespace {

/// TV budgets salting cold requests: unique per request, never binding.
constexpr uint64_t kColdBudgetBase = 2000000000ull;
constexpr unsigned kBlock = Schedule::kBlock;
constexpr unsigned kMemoPerBlock = Schedule::kMemoPerBlock;
constexpr unsigned kDiskPerBlock = Schedule::kDiskPerBlock;

bool waitExit(int Pid, unsigned Ms) {
  for (unsigned I = 0; I <= Ms / 10; ++I) {
    int St = 0;
    pid_t R = ::waitpid(Pid, &St, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD))
      return true;
    ::usleep(10000);
  }
  return false;
}

/// True once no process of group \p Pgid is left.
bool groupGone(int Pgid, unsigned Ms) {
  for (unsigned I = 0; I <= Ms / 10; ++I) {
    if (::kill(-Pgid, 0) != 0 && errno == ESRCH)
      return true;
    ::usleep(10000);
  }
  return false;
}

wire::Message simple(wire::Kind K) {
  wire::Message M;
  M.TheKind = K;
  return M;
}

} // namespace

const char *className(ReqClass C) {
  switch (C) {
  case ReqClass::Memo:
    return "memo";
  case ReqClass::Disk:
    return "disk";
  case ReqClass::Cold:
    return "cold";
  }
  return "?";
}

wire::Message certifyMessage(std::vector<std::string> Programs,
                             uint64_t TvStepBudget, bool KeepGoing,
                             bool WantJson, bool WantBin) {
  wire::Message M;
  M.TheKind = wire::Kind::CertifyRequest;
  M.Certify.Programs = std::move(Programs);
  M.Certify.TvStepBudget = TvStepBudget;
  M.Certify.KeepGoing = KeepGoing;
  M.Certify.WantCertJson = WantJson;
  M.Certify.WantCertBin = WantBin;
  return M;
}

bool Daemon::start(const Args &A, const std::string &Sock,
                   const std::string &CacheDir, unsigned Workers,
                   std::string *Why) {
  Socket = Sock;
  std::string W = std::to_string(Workers);
  pid_t P = ::fork();
  if (P < 0) {
    *Why = "fork failed";
    return false;
  }
  if (P == 0) {
    ::setpgid(0, 0);
    int Log = ::open("relcd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Log >= 0) {
      ::dup2(Log, 1);
      ::dup2(Log, 2);
    }
    ::execl(A.Relcd.c_str(), "relcd", "serve", "-socket", Sock.c_str(),
            "-cache-dir", CacheDir.c_str(), "-workers", W.c_str(), "-j", "1",
            static_cast<char *>(nullptr));
    ::_exit(127);
  }
  ::setpgid(P, P); // Both sides, so the group exists before either runs on.
  Pid = P;
  for (unsigned I = 0; I < 1000; ++I) {
    Client C;
    if (C.connect(Socket, 50)) {
      Result<wire::Message> R = C.roundTrip(simple(wire::Kind::PingRequest));
      if (R && R->TheKind == wire::Kind::PongReply)
        return true;
    }
    int St = 0;
    if (::waitpid(Pid, &St, WNOHANG) == Pid) {
      Pid = -1;
      *Why = "relcd exited during start-up (see relcd.log)";
      return false;
    }
    ::usleep(10000);
  }
  *Why = "relcd never answered a ping";
  stop();
  return false;
}

bool Daemon::stop() {
  if (Pid < 0)
    return true;
  bool Clean = false;
  {
    Client C;
    if (C.connect(Socket, 1000)) {
      Result<wire::Message> R =
          C.roundTrip(simple(wire::Kind::ShutdownRequest), 5000);
      Clean = R && R->TheKind == wire::Kind::ShutdownReply;
    }
  }
  // The daemon drains in-flight work and tears its worker pool down.
  if (!Clean || !waitExit(Pid, 20000)) {
    Clean = false;
    ::kill(-Pid, SIGKILL);
    waitExit(Pid, 5000);
  }
  if (!groupGone(Pid, 5000)) {
    Clean = false;
    ::kill(-Pid, SIGKILL);
    groupGone(Pid, 5000);
  }
  Pid = -1;
  ::unlink(Socket.c_str());
  ::unlink((Socket + ".lock").c_str());
  return Clean;
}

bool Daemon::stats(wire::Stats *Out) const {
  Client C;
  if (!C.connect(Socket, 1000))
    return false;
  Result<wire::Message> R = C.roundTrip(simple(wire::Kind::StatsRequest));
  if (!R || R->TheKind != wire::Kind::StatsReply)
    return false;
  *Out = R->TheStats;
  return true;
}

Judgement judgeReply(ReqClass C, const wire::CertifyRequest &Req,
                     const wire::Message &Reply,
                     const std::vector<RefCert> &Refs, std::string *Why) {
  if (Reply.TheKind == wire::Kind::ErrorReply) {
    *Why = std::string(className(C)) + " request: " + Reply.Error.Reason +
           " " + Reply.Error.Detail;
    return Judgement::Failed;
  }
  if (Reply.TheKind != wire::Kind::CertifyReply || Reply.Reply.Exit != 0) {
    *Why = std::string(className(C)) + " request: exit " +
           std::to_string(Reply.Reply.Exit);
    return Judgement::Failed;
  }
  const std::vector<wire::ProgramResult> &Ps = Reply.Reply.Programs;
  if (Ps.size() != Req.Programs.size()) {
    *Why = "reply carries " + std::to_string(Ps.size()) + " programs for " +
           std::to_string(Req.Programs.size()) + " requested";
    return Judgement::Wrong;
  }
  const Provenance From = C == ReqClass::Memo   ? Provenance::Memo
                          : C == ReqClass::Disk ? Provenance::DiskCache
                                                : Provenance::Live;
  for (size_t I = 0; I < Ps.size(); ++I) {
    if (Ps[I].Status != uint8_t(ProgramStatus::Certified)) {
      *Why = Ps[I].Name + ": status " +
             statusName(ProgramStatus(Ps[I].Status));
      return Judgement::Failed;
    }
    const RefCert *Ref = findRef(Refs, Req.Programs[I]);
    if (!Ref) {
      *Why = "no reference for " + Req.Programs[I];
      return Judgement::Wrong;
    }
    if (!wireResultMatches(Ps[I], *Ref, From, Req.WantCertJson,
                           Req.WantCertBin, Why)) {
      *Why = std::string(className(C)) + " request: " + *Why;
      return Judgement::Wrong;
    }
  }
  return Judgement::Ok;
}

Schedule::Schedule(uint64_t Seed) : Seed(Seed), Names(suiteNames()) {
  // The cache keeps one entry per program (content key), whatever the
  // options: a cold request's store replaces the program's default entry.
  // Cold requests therefore rotate over the two programs with the heaviest
  // differential layer, and disk requests over the other five, so every
  // request's provenance is fixed by its class.
  for (const std::string &N : Names)
    (N == "utf8" || N == "ip" ? Cold : Disk).push_back(N);
  std::vector<std::string> P = Disk;
  std::sort(P.begin(), P.end());
  do
    Perms.push_back(P);
  while (std::next_permutation(P.begin(), P.end()));
  SeedRng R(Seed ^ 0x5eedd15cull);
  R.shuffle(Perms);
}

Schedule::Item Schedule::at(uint64_t I) const {
  const uint64_t Block = I / kBlock, Pos = I % kBlock;
  // A seeded permutation of the block's 100 slots.
  std::vector<unsigned> Slots(kBlock);
  for (unsigned K = 0; K < kBlock; ++K)
    Slots[K] = K;
  SeedRng R(Seed * 0x9e3779b97f4a7c15ull + Block);
  R.shuffle(Slots);
  const unsigned S = Slots[Pos];
  if (S < kMemoPerBlock) {
    // 11 of each warmed shape per block (77) plus three seeded extras.
    unsigned Prog = S < 77 ? S % 7 : unsigned(R.below(7));
    return {ReqClass::Memo, certifyMessage({Names[Prog]}, 0, false, true, true)};
  }
  if (S < kMemoPerBlock + kDiskPerBlock) {
    // A permutation of the disk programs x certificate format: 360 shapes,
    // cycled. A shape comes back only after hundreds of other memo
    // insertions, long after the 64-entry memo has dropped it.
    uint64_t D = Block * kDiskPerBlock + (S - kMemoPerBlock);
    const std::vector<std::string> &P = Perms[D % Perms.size()];
    unsigned Fmt = unsigned(D / Perms.size()) % 3;
    return {ReqClass::Disk, certifyMessage(P, 0, true, Fmt != 1, Fmt != 2)};
  }
  uint64_t C = Block * (kBlock - kMemoPerBlock - kDiskPerBlock) +
               (S - kMemoPerBlock - kDiskPerBlock);
  return {ReqClass::Cold, certifyMessage({Cold[(C + Seed) % Cold.size()]},
                                         kColdBudgetBase + C, false, true,
                                         true)};
}

namespace {

struct Sample {
  double Ms;
  ReqClass Class;
  double DoneS; ///< Completion time, seconds since the loop started.
};

} // namespace

Outcome runDaemonMixed(const Args &A) {
  Outcome O;
  std::vector<RefCert> Refs;
  std::string Why;
  auto Bail = [&](const std::string &W) {
    O.Attempted = std::max<uint64_t>(O.Attempted, 1);
    O.wrong(W);
    return O;
  };
  if (!buildReference(&Refs, &Why))
    return Bail(Why);
  // Cold requests salt the TV budget; a budget that never binds must
  // certify to the same bytes as the unbudgeted reference.
  {
    service::Request Req;
    Req.Jobs = coreCount();
    Req.TvStepBudget = kColdBudgetBase;
    service::Response Resp = service::certify(Req);
    for (const service::ProgramReply &P : Resp.Programs) {
      const RefCert *Ref = findRef(Refs, P.Name);
      if (!Ref || !replyMatches(P, *Ref, Provenance::Live, &Why))
        return Bail("budgeted in-process certify: " + Why);
    }
  }

  const unsigned Clients = std::min(2u, coreCount()); // Also the workers.
  removeTree("relcd-cache");
  Daemon D;
  if (!D.start(A, "relcd.sock", "relcd-cache", Clients, &Why))
    return Bail(Why);
  const std::vector<std::string> Names = suiteNames();
  {
    // Fill the disk cache (live), then warm the memo's seven shapes
    // (their first answer comes from the disk cache).
    Client C;
    if (!C.connect(D.socket()))
      return Bail("cannot connect to relcd");
    wire::Message Fill = certifyMessage(Names, 0, false, true, true);
    Result<wire::Message> R = C.roundTrip(Fill);
    if (!R || judgeReply(ReqClass::Cold, Fill.Certify, *R, Refs, &Why) !=
                  Judgement::Ok)
      return Bail("filling the daemon's cache: " + (R ? Why : "lost"));
    for (const std::string &N : Names) {
      wire::Message M = certifyMessage({N}, 0, false, true, true);
      R = C.roundTrip(M);
      if (!R || judgeReply(ReqClass::Disk, M.Certify, *R, Refs, &Why) !=
                    Judgement::Ok)
        return Bail("warming the memo: " + (R ? Why : "lost"));
    }
  }
  wire::Stats Before{};
  D.stats(&Before);
  const Schedule Sched(A.Seed);
  const double Setup = setupSeconds(A);

  std::atomic<uint64_t> Next{0}, Limit{UINT64_MAX};
  std::atomic<bool> LimitSet{false};
  std::mutex Mu; // Guards O and Samples.
  std::vector<Sample> Samples;
  const Clock::time_point T0 = Clock::now();
  const Clock::time_point End = T0 + std::chrono::seconds(A.Seconds);
  auto ClientLoop = [&] {
    Client C;
    std::vector<Sample> Mine;
    for (;;) {
      const uint64_t I = Next.fetch_add(1);
      // Time is up: finish the current block, so every run attempts
      // whole blocks of the schedule.
      if (Clock::now() >= End && !LimitSet.exchange(true))
        Limit = (Next.load() + kBlock - 1) / kBlock * kBlock;
      if (I >= Limit.load())
        break;
      Schedule::Item It = Sched.at(I);
      if (!C.connected() && !C.connect(D.socket(), 2000)) {
        std::lock_guard<std::mutex> L(Mu);
        ++O.Attempted;
        O.failed("connect to relcd lost");
        continue;
      }
      Clock::time_point S = Clock::now();
      Result<wire::Message> R = C.roundTrip(It.Msg, 60000);
      double Ms = msSince(S);
      std::string W;
      Judgement J = R ? judgeReply(It.Class, It.Msg.Certify, *R, Refs, &W)
                      : Judgement::Failed;
      if (!R) {
        W = "lost round trip: " + R.error().str();
        C.close();
      }
      if (J == Judgement::Ok)
        Mine.push_back({Ms, It.Class, msSince(T0) / 1000.0});
      std::lock_guard<std::mutex> L(Mu);
      ++O.Attempted;
      if (J == Judgement::Failed)
        O.failed(W);
      else if (J == Judgement::Wrong)
        O.wrong(W);
    }
    std::lock_guard<std::mutex> L(Mu);
    Samples.insert(Samples.end(), Mine.begin(), Mine.end());
  };
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Clients; ++I)
    Pool.emplace_back(ClientLoop);
  for (std::thread &T : Pool)
    T.join();

  wire::Stats After{};
  D.stats(&After);
  const double Rss = peakRssMibOf(D.pid());
  if (!D.stop())
    O.wrong("relcd did not drain and exit on shutdown");
  removeTree("relcd-cache");

  // Throughput per one-second window of the measured interval; the
  // reported rate is the 90th percentile window, the rate the daemon
  // sustains when the shared host is not contended (README).
  std::vector<double> All, PerWindow(A.Seconds, 0.0);
  size_t PerClass[3] = {0, 0, 0};
  for (const Sample &S : Samples) {
    All.push_back(S.Ms);
    ++PerClass[unsigned(S.Class)];
    if (S.DoneS < double(A.Seconds))
      PerWindow[size_t(S.DoneS)] += 1;
  }
  O.add("setup_s", Setup, "s");
  O.add("p10_ms", quantile(All, 0.1), "ms");
  O.add("per_s", quantile(PerWindow, 0.9), "1/s");
  O.add("peak_rss_mib", Rss, "MiB");
  std::fprintf(stderr,
               "perfbench daemon-mixed: %u clients, %u workers; %zu memo / "
               "%zu disk / %zu cold replies; latency p50 %.4f ms, p99 %.3f "
               "ms; relcd stats delta: %llu memo hits, %llu cache hits, %llu "
               "busy\n",
               Clients, Clients, PerClass[0], PerClass[1], PerClass[2],
               median(All), quantile(All, tailQuantile(All.size(), 0.99)),
               (unsigned long long)(After.MemoHits - Before.MemoHits),
               (unsigned long long)(After.CacheHits - Before.CacheHits),
               (unsigned long long)(After.BusyRejections -
                                    Before.BusyRejections));
  return O;
}

} // namespace pb
