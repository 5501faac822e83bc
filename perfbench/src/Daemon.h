//===- perfbench/src/Daemon.h - A relcd child process -----------*- C++ -*-===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// Starts `relcd serve` as a child in its own process group, and on stop()
// (or destruction) asks it to shut down over the wire — it drains and
// reaps its workers — then waits until the whole group is gone, killing
// it only if the drain does not finish in time.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include "Common.h"

#include <string>

namespace pb {

class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns relcd on \p Socket with \p CacheDir and \p Workers workers and
  /// waits until it answers a ping.
  bool start(const Args &A, const std::string &Socket,
             const std::string &CacheDir, unsigned Workers,
             std::string *Why);
  /// Shuts the daemon down and reaps it and its workers. Idempotent.
  /// Returns false if it had to be killed.
  bool stop();

  int pid() const { return Pid; }
  const std::string &socket() const { return Socket; }
  bool stats(relc::service::wire::Stats *Out) const;

private:
  int Pid = -1;
  std::string Socket;
};

/// What a daemon-mixed request is built to exercise, and so which
/// provenance its reply must carry.
enum class ReqClass : uint8_t {
  Memo, ///< A repeat of a warmed shape: answered from the reply memo.
  Disk, ///< A shape the memo does not hold, over cached verdicts.
  Cold, ///< A never-seen TV budget: certified live by a worker.
};
const char *className(ReqClass C);

enum class Judgement : uint8_t { Ok, Failed, Wrong };

/// Judges one reply to \p Req: a busy, error or degraded reply is a failed
/// operation; a certified reply whose provenance does not match \p C, or
/// whose certificates differ from the references, is a wrong output.
Judgement judgeReply(ReqClass C, const relc::service::wire::CertifyRequest &Req,
                     const relc::service::wire::Message &Reply,
                     const std::vector<RefCert> &Refs, std::string *Why);

/// A certify request over the wire.
relc::service::wire::Message
certifyMessage(std::vector<std::string> Programs, uint64_t TvStepBudget,
               bool KeepGoing, bool WantJson, bool WantBin);

/// The seeded daemon-mixed request schedule, in blocks of kBlock: request
/// I's class and shape depend only on the seed and I. No relcd traffic has
/// been recorded, so the shares follow bench/service_load, the repository's
/// relcd load: 90 hot to 10 cold. Ten of the 90 hot requests are shapes the
/// reply memo no longer holds (disk), the path service_load's seven-shape
/// hot side never takes.
class Schedule {
public:
  static constexpr unsigned kBlock = 100, kMemoPerBlock = 80,
                            kDiskPerBlock = 10;
  explicit Schedule(uint64_t Seed);

  struct Item {
    ReqClass Class;
    relc::service::wire::Message Msg;
  };
  Item at(uint64_t I) const;

private:
  uint64_t Seed;
  std::vector<std::string> Names, Cold, Disk;
  std::vector<std::vector<std::string>> Perms;
};

} // namespace pb

#endif // PERFBENCH_DAEMON_H
