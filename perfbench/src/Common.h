//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// Arguments, the result line, sample statistics, file-system helpers, and
// the correctness checks every workload shares. The checks are plain
// functions over outputs so the self-test can feed each one a corrupted
// output and watch it refuse.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "relc/Certify.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  /// Warm-certify only: a cache holding only the suite's entries, not
  /// those of past builds.
  bool SuiteOnlyCache = false;
  /// Build the warm cache and exit (run.py, before the measured process).
  bool Prepare = false;
  std::string Relcd;    ///< Absolute path of the relcd binary.
  std::string StateDir; ///< Outputs kept after the run (traces).
  int64_t T0Ns = 0;     ///< CLOCK_MONOTONIC ns when the process was spawned.
};

//===----------------------------------------------------------------------===//
// Clock and statistics.
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

int64_t monoNs(); ///< CLOCK_MONOTONIC, the clock run.py stamps T0 with.

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Linear-interpolated quantile \p Q of \p V (unsorted copy taken).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
/// The highest percentile with at least ten samples beyond it, capped at
/// \p Cap (p90 for suite timings, p99 for request latencies).
double tailQuantile(size_t N, double Cap);
double geomean(const std::vector<double> &V);

/// splitmix64: the benchmark's own generator, so inputs depend only on
/// the seed and never on the program under test.
struct SeedRng {
  uint64_t S;
  explicit SeedRng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

//===----------------------------------------------------------------------===//
// The result line.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems; ///< First few, printed to stderr.

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// An output that is wrong: the run is not correct.
  void wrong(const std::string &Why);
  /// An operation that did not complete (busy, degraded, lost).
  void failed(const std::string &Why);
};

/// Prints the human-readable table and, as the last stdout line, the JSON
/// result object.
void printOutcome(const Args &A, const Outcome &O);

/// Peak resident set of this process, MiB.
double selfPeakRssMib();
/// Largest peak resident set (VmHWM) of process \p Pid and its children
/// (relcd's workers), MiB; 0 if unreadable.
double peakRssMibOf(int Pid);
unsigned coreCount();

//===----------------------------------------------------------------------===//
// Files.
//===----------------------------------------------------------------------===//

void removeTree(const std::string &Dir);
size_t countFiles(const std::string &Dir);

//===----------------------------------------------------------------------===//
// The suite and its reference answers.
//===----------------------------------------------------------------------===//

std::vector<std::string> suiteNames();

/// One program's reference certificate, from a cold in-process certify
/// with no cache, accepted by the independent checker.
struct RefCert {
  std::string Name;
  std::string CertJson;
  std::string CertBin;
};

/// Certifies the whole suite cold (Jobs=1, no cache), checks the known
/// answers and runs the independent checker on both certificate faces.
/// Returns false (with \p Why) if any of that fails.
bool buildReference(std::vector<RefCert> *Out, std::string *Why);
const RefCert *findRef(const std::vector<RefCert> &Refs,
                       const std::string &Name);

/// The independent check (relc/Check.h): decodes the binary certificate
/// face and re-derives it against a fresh compile of program \p Name.
bool checkerAccepts(const std::string &Name, const std::string &CertBin,
                    std::string *Why);

/// Checks one in-process reply against the suite's known answers and the
/// reference bytes: certified, TV proved, codelint safe, provenance \p From,
/// and certificate faces byte-equal to \p Ref (a face not requested must
/// be empty).
bool replyMatches(const relc::service::ProgramReply &R, const RefCert &Ref,
                  relc::service::Provenance From, std::string *Why);

/// The same over the wire projection.
bool wireResultMatches(const relc::service::wire::ProgramResult &R,
                       const RefCert &Ref, relc::service::Provenance From,
                       bool WantJson, bool WantBin, std::string *Why);

} // namespace pb

#endif // PERFBENCH_COMMON_H
